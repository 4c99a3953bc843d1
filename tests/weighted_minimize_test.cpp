// Weighted minimization and scoped (always-assume) index search tests.
#include <gtest/gtest.h>

#include "cnf/backend.hpp"
#include "opt/minimize.hpp"
#include "util/error.hpp"

namespace etcs::opt {
namespace {

using cnf::SolveStatus;

std::vector<Literal> makeInputs(SatBackend& backend, int n) {
    std::vector<Literal> inputs;
    for (int i = 0; i < n; ++i) {
        inputs.push_back(Literal::positive(backend.addVariable()));
    }
    return inputs;
}

class WeightedStrategyTest : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(WeightedStrategyTest, PrefersCheapCover) {
    // Demand x0 | x1 with w(x0) = 5, w(x1) = 1 -> optimum 1 via x1.
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 2);
    backend->addClause({soft[0], soft[1]});
    const int weights[] = {5, 1};
    const auto result = minimizeWeightedTrueLiterals(*backend, soft, weights, GetParam());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.optimum, 1);
    EXPECT_FALSE(backend->modelValue(soft[0]));
    EXPECT_TRUE(backend->modelValue(soft[1]));
}

TEST_P(WeightedStrategyTest, TradesManyCheapForOneExpensive) {
    // Force (x0) | (x1 & x2 & x3): x0 costs 4, the trio costs 3.
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 4);
    backend->addClause({soft[0], soft[1]});
    backend->addClause({soft[0], soft[2]});
    backend->addClause({soft[0], soft[3]});
    const int weights[] = {4, 1, 1, 1};
    const auto result = minimizeWeightedTrueLiterals(*backend, soft, weights, GetParam());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.optimum, 3);
    EXPECT_FALSE(backend->modelValue(soft[0]));
}

TEST_P(WeightedStrategyTest, MatchesUnweightedWithUnitWeights) {
    const auto backend1 = cnf::makeInternalBackend();
    const auto backend2 = cnf::makeInternalBackend();
    const auto soft1 = makeInputs(*backend1, 6);
    const auto soft2 = makeInputs(*backend2, 6);
    for (int i = 0; i < 3; ++i) {
        backend1->addClause({soft1[2 * i], soft1[2 * i + 1]});
        backend2->addClause({soft2[2 * i], soft2[2 * i + 1]});
    }
    const int weights[] = {1, 1, 1, 1, 1, 1};
    const auto weighted = minimizeWeightedTrueLiterals(*backend1, soft1, weights, GetParam());
    const auto plain = minimizeTrueLiterals(*backend2, soft2, GetParam());
    ASSERT_TRUE(weighted.feasible);
    ASSERT_TRUE(plain.feasible);
    EXPECT_EQ(weighted.optimum, plain.optimum);
}

TEST_P(WeightedStrategyTest, InfeasibleReported) {
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 2);
    backend->addClause({soft[0]});
    backend->addClause({~soft[0]});
    const int weights[] = {1, 1};
    EXPECT_FALSE(minimizeWeightedTrueLiterals(*backend, soft, weights, GetParam()).feasible);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WeightedStrategyTest,
                         ::testing::Values(SearchStrategy::LinearDown, SearchStrategy::Binary),
                         [](const ::testing::TestParamInfo<SearchStrategy>& info) {
                             std::string name(toString(info.param));
                             for (char& c : name) {
                                 if (c == '-') {
                                     c = '_';
                                 }
                             }
                             return name;
                         });

TEST(WeightedMinimize, RejectsMismatchedWeights) {
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 3);
    const int weights[] = {1, 2};
    EXPECT_THROW(
        (void)minimizeWeightedTrueLiterals(*backend, soft, weights),
        PreconditionError);
}

TEST(WeightedMinimize, RejectsNonPositiveWeights) {
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 2);
    const int weights[] = {1, 0};
    EXPECT_THROW(
        (void)minimizeWeightedTrueLiterals(*backend, soft, weights),
        PreconditionError);
}

TEST(ScopedMinimize, AlwaysAssumeAppliesToIndexSearch) {
    // Monotone chain y0 -> y1 -> ... with a scope literal that forbids the
    // first three indices.
    const auto backend = cnf::makeInternalBackend();
    const auto y = makeInputs(*backend, 6);
    for (int t = 0; t + 1 < 6; ++t) {
        backend->addClause({~y[t], y[t + 1]});
    }
    const Literal scope = Literal::positive(backend->addVariable());
    backend->addClause({~scope, ~y[2]});  // scope -> indices <= 2 infeasible
    const Literal scopeArr[] = {scope};
    const auto scoped = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 0, 5, SearchStrategy::Binary, scopeArr);
    ASSERT_TRUE(scoped.feasible);
    EXPECT_EQ(scoped.index, 3);
    const auto unscoped =
        smallestFeasibleIndex(*backend, [&](int t) { return y[t]; }, 0, 5);
    ASSERT_TRUE(unscoped.feasible);
    EXPECT_EQ(unscoped.index, 0);
}

}  // namespace
}  // namespace etcs::opt
