// At-most-one / exactly-one constraints: the pairwise building block and the
// full encoding (pairwise up to three literals, sequential above) must accept
// every assignment with <= 1 (== 1) true input and reject everything else.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "cnf/amo.hpp"
#include "util/error.hpp"
#include "cnf/backend.hpp"

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

using AddConstraint = void (*)(SatBackend&, std::span<const Literal>);

/// An encoding under test: its at-most-one and its exactly-one.
struct Encoding {
    const char* name;
    AddConstraint atMostOne;
    AddConstraint exactlyOne;
};

void PrintTo(const Encoding& encoding, std::ostream* os) { *os << encoding.name; }

void addPairwiseExactlyOne(SatBackend& backend, std::span<const Literal> literals) {
    backend.addClause(literals);
    addPairwiseAtMostOne(backend, literals);
}

const Encoding kPairwise{"pairwise", &addPairwiseAtMostOne, &addPairwiseExactlyOne};
const Encoding kSequential{"sequential", &addAtMostOne, &addExactlyOne};

/// Parameter: (encoding, group size).
class AmoEncodingTest : public ::testing::TestWithParam<std::tuple<Encoding, int>> {};

TEST_P(AmoEncodingTest, AtMostOneAcceptsExactlyTheRightAssignments) {
    const auto& [encoding, n] = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    encoding.atMostOne(*backend, inputs);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int trueCount = __builtin_popcount(bits);
        const auto assumptions = assignmentAssumptions(inputs, bits);
        const bool expected = trueCount <= 1;
        EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, expected)
            << "n=" << n << " bits=" << bits;
    }
}

TEST_P(AmoEncodingTest, ExactlyOneAcceptsExactlyTheRightAssignments) {
    const auto& [encoding, n] = GetParam();
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, n);
    encoding.exactlyOne(*backend, inputs);
    for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
        const int trueCount = __builtin_popcount(bits);
        const auto assumptions = assignmentAssumptions(inputs, bits);
        EXPECT_EQ(backend->solve(assumptions) == SolveStatus::Sat, trueCount == 1)
            << "n=" << n << " bits=" << bits;
    }
}

// Instance names carry the encoding: `pairwise` (the building block on any
// group size) or `sequential` (addAtMostOne / addExactlyOne: pairwise up to
// three literals, sequential above).
INSTANTIATE_TEST_SUITE_P(
    AllEncodingsAndSizes, AmoEncodingTest,
    ::testing::Combine(::testing::Values(kPairwise, kSequential),
                       ::testing::Values(1, 2, 3, 4, 5, 7, 9, 12)),
    [](const ::testing::TestParamInfo<std::tuple<Encoding, int>>& info) {
        return std::string(std::get<0>(info.param).name) + "_n" +
               std::to_string(std::get<1>(info.param));
    });

TEST(AmoEncoding, EmptyAndSingletonAreNoOps) {
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, 1);
    addAtMostOne(*backend, {});
    addAtMostOne(*backend, inputs);
    EXPECT_EQ(backend->numClauses(), 0u);
    EXPECT_EQ(backend->solve({inputs[0]}), SolveStatus::Sat);
}

TEST(AmoEncoding, ExactlyOneOverEmptySetIsRejected) {
    const auto backend = makeInternalBackend();
    EXPECT_THROW(addExactlyOne(*backend, {}), PreconditionError);
}

/// Groups of up to three literals are encoded pairwise: C(n, 2) clauses and
/// no auxiliary variables.
TEST(AmoEncoding, PairwiseAddsNoAuxiliaryVariables) {
    for (const int n : {2, 3}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto backend = makeInternalBackend();
        const auto inputs = makeInputs(*backend, n);
        addAtMostOne(*backend, inputs);
        EXPECT_EQ(backend->numVariables(), n);
        EXPECT_EQ(backend->numClauses(), static_cast<std::size_t>(n * (n - 1) / 2));
    }
}

TEST(AmoEncoding, SequentialIsLinearInClauses) {
    const auto backend = makeInternalBackend();
    const auto inputs = makeInputs(*backend, 40);
    addAtMostOne(*backend, inputs);
    EXPECT_LT(backend->numClauses(), 3u * 40u + 5u);
}

}  // namespace
}  // namespace etcs::cnf
