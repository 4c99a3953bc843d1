// Totalizer cardinality encoding: outputs must track the popcount of the
// inputs exactly, for every assignment.
#include <gtest/gtest.h>

#include "cnf/backend.hpp"
#include "cnf/cardinality.hpp"
#include "util/error.hpp"

namespace etcs::cnf {
namespace {

std::vector<Literal> makeInputs(SatBackend& backend, int n) {
    std::vector<Literal> inputs;
    for (int i = 0; i < n; ++i) {
        inputs.push_back(Literal::positive(backend.addVariable()));
    }
    return inputs;
}

std::vector<Literal> assignmentAssumptions(const std::vector<Literal>& inputs,
                                           std::uint32_t bits) {
    std::vector<Literal> assumptions;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        assumptions.push_back(((bits >> i) & 1u) != 0 ? inputs[i] : ~inputs[i]);
    }
    return assumptions;
}

class TotalizerTest : public ::testing::TestWithParam<int> {};

TEST_P(TotalizerTest, OutputsEqualPopcountForEveryAssignment) {
    const int n = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    const Totalizer totalizer(*backend, inputs);
    ASSERT_EQ(totalizer.numInputs(), static_cast<std::size_t>(n));
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int popcount = __builtin_popcount(bits);
        auto assumptions = assignmentAssumptions(inputs, bits);
        ASSERT_EQ(backend->solve(assumptions), SolveStatus::Sat);
        for (int k = 0; k < n; ++k) {
            // output(k) holds iff at least k+1 inputs are true.
            EXPECT_EQ(backend->modelValue(totalizer.output(k)), popcount >= k + 1)
                << "n=" << n << " bits=" << bits << " k=" << k;
        }
    }
}

TEST_P(TotalizerTest, AtMostAssumptionEnforcesBound) {
    const int n = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    const Totalizer totalizer(*backend, inputs);
    for (int k = 0; k < n; ++k) {
        for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
            auto assumptions = assignmentAssumptions(inputs, bits);
            assumptions.push_back(totalizer.atMostAssumption(static_cast<std::size_t>(k)));
            const bool expected = __builtin_popcount(bits) <= k;
            EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, expected)
                << "n=" << n << " k=" << k << " bits=" << bits;
        }
    }
}

TEST_P(TotalizerTest, AtLeastAssumptionEnforcesBound) {
    const int n = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    const Totalizer totalizer(*backend, inputs);
    for (int k = 1; k <= n; ++k) {
        for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
            auto assumptions = assignmentAssumptions(inputs, bits);
            assumptions.push_back(totalizer.atLeastAssumption(static_cast<std::size_t>(k)));
            const bool expected = __builtin_popcount(bits) >= k;
            EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, expected)
                << "n=" << n << " k=" << k << " bits=" << bits;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TotalizerTest, ::testing::Values(1, 2, 3, 4, 5, 6, 8));

TEST(Totalizer, HardAtMostConstraint) {
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, 6);
    const Totalizer totalizer(*backend, inputs);
    totalizer.addAtMost(*backend, 2);
    // Forcing three inputs true is now unsatisfiable.
    EXPECT_EQ(backend->solve({inputs[0], inputs[1], inputs[2]}), SolveStatus::Unsat);
    EXPECT_EQ(backend->solve({inputs[0], inputs[1]}), SolveStatus::Sat);
}

TEST(Cardinality, TotalizerOverEmptyInputsIsRejected) {
    const auto backend = makeInternalBackend();
    EXPECT_THROW(Totalizer(*backend, {}), PreconditionError);
}

}  // namespace
}  // namespace etcs::cnf
