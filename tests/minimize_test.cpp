// Optimization engine tests: every strategy must find the true optimum (as
// determined by brute force), and the backend's model must be optimal after
// return.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "opt/minimize.hpp"
#include "support/cancelling_backend.hpp"
#include "support/forwarding_backend.hpp"
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

/// A monotone chain y_0 -> y_1 -> ... -> y_{n-1} over the backend's first n
/// variables, so y_t is variable t; literal(t) is satisfiable iff
/// t >= firstFeasible (never when firstFeasible >= n).
std::vector<Literal> makeChain(SatBackend& backend, int n, int firstFeasible) {
    std::vector<Literal> y = makeInputs(backend, n);
    for (int t = 0; t + 1 < n; ++t) {
        backend.addClause({~y[t], y[t + 1]});
    }
    if (firstFeasible > 0) {
        backend.addClause({~y[std::min(firstFeasible, n) - 1]});
    }
    return y;
}

/// Records, for each solve, the variable of its last assumption — the index
/// smallestFeasibleIndex probes on a chain from makeChain.
class ProbeRecordingBackend final : public test::ForwardingBackend {
public:
    using test::ForwardingBackend::solve;

    SolveStatus solve(std::span<const Literal> assumptions) override {
        probes.push_back(assumptions.empty() ? -1 : assumptions.back().var());
        return test::ForwardingBackend::solve(assumptions);
    }

    std::vector<int> probes;
};

class StrategyTest : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(StrategyTest, MinimumOfUnconstrainedSoftLiteralsIsZero) {
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 5);
    const auto result = minimizeTrueLiterals(*backend, soft, GetParam());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.optimum, 0);
}

TEST_P(StrategyTest, CoveringConstraintForcesMinimum) {
    // Soft literals must cover three disjoint "demands": x0|x1, x2|x3, x4|x5
    // -> optimum 3.
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 6);
    backend->addClause({soft[0], soft[1]});
    backend->addClause({soft[2], soft[3]});
    backend->addClause({soft[4], soft[5]});
    const auto result = minimizeTrueLiterals(*backend, soft, GetParam());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.optimum, 3);
    // The backend's model must realize the optimum.
    int count = 0;
    for (Literal l : soft) {
        count += backend->modelValue(l) ? 1 : 0;
    }
    EXPECT_EQ(count, 3);
}

/// A cancelled probe refutes nothing: wherever the search is cancelled, it
/// stops there and reports no optimum.
TEST_P(StrategyTest, CancelledProbeEndsTheSearch) {
    const auto run = [&](std::uint64_t cancelFrom) {
        std::uint64_t solves = 0;
        test::CancellingBackend backend(cancelFrom, solves);
        const auto soft = makeInputs(backend, 6);
        backend.addClause({soft[0], soft[1]});
        backend.addClause({soft[2], soft[3]});
        backend.addClause({soft[4], soft[5]});
        const auto result = minimizeTrueLiterals(backend, soft, GetParam());
        EXPECT_EQ(result.solveCalls, solves);
        return result;
    };
    const auto uncancelled = run(UINT64_MAX);
    ASSERT_TRUE(uncancelled.feasible);
    for (std::uint64_t cancelFrom = 1; cancelFrom <= uncancelled.solveCalls; ++cancelFrom) {
        SCOPED_TRACE("cancelled from solve " + std::to_string(cancelFrom));
        MinimizeResult cancelled{.feasible = true};
        EXPECT_NO_THROW(cancelled = run(cancelFrom));
        EXPECT_FALSE(cancelled.feasible);
        EXPECT_TRUE(cancelled.cancelled);
        EXPECT_EQ(cancelled.solveCalls, cancelFrom);
    }
    EXPECT_FALSE(uncancelled.cancelled);
}

TEST_P(StrategyTest, InfeasibleHardClausesReported) {
    const auto backend = cnf::makeInternalBackend();
    const auto soft = makeInputs(*backend, 3);
    backend->addClause({soft[0]});
    backend->addClause({~soft[0]});
    const auto result = minimizeTrueLiterals(*backend, soft, GetParam());
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.cancelled) << "UNSAT is not a cancelled search";
}

TEST_P(StrategyTest, EmptySoftSetIsPlainSolve) {
    const auto backend = cnf::makeInternalBackend();
    makeInputs(*backend, 2);
    const auto result = minimizeTrueLiterals(*backend, {}, GetParam());
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.optimum, 0);
}

TEST_P(StrategyTest, RandomInstancesMatchBruteForce) {
    std::mt19937 rng(77);
    for (int round = 0; round < 8; ++round) {
        // Random 3-clauses over 8 soft variables.
        const int n = 8;
        std::uniform_int_distribution<int> varDist(0, n - 1);
        std::bernoulli_distribution signDist(0.3);  // mostly positive -> coverage
        std::vector<std::vector<Literal>> clauses;
        const int numClauses = 10;

        const auto backend = cnf::makeInternalBackend();
        const auto soft = makeInputs(*backend, n);
        for (int c = 0; c < numClauses; ++c) {
            std::vector<Literal> clause;
            for (int k = 0; k < 3; ++k) {
                const Literal l = soft[varDist(rng)];
                clause.push_back(signDist(rng) ? ~l : l);
            }
            clauses.push_back(clause);
            backend->addClause(clause);
        }

        // Brute-force optimum.
        int best = -1;
        for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
            bool ok = true;
            for (const auto& clause : clauses) {
                bool sat = false;
                for (Literal l : clause) {
                    const bool v = ((bits >> l.var()) & 1u) != 0;
                    if (v != l.sign()) {
                        sat = true;
                        break;
                    }
                }
                if (!sat) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                const int count = __builtin_popcount(bits);
                if (best < 0 || count < best) {
                    best = count;
                }
            }
        }

        const auto result = minimizeTrueLiterals(*backend, soft, GetParam());
        ASSERT_EQ(result.feasible, best >= 0) << "round " << round;
        if (best >= 0) {
            EXPECT_EQ(result.optimum, best) << "round " << round;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
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

class IndexSearchTest : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(IndexSearchTest, FindsSmallestFeasibleIndex) {
    const auto backend = cnf::makeInternalBackend();
    const auto y = makeChain(*backend, 10, 5);
    const auto result = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 0, 9, GetParam());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.index, 5);
    EXPECT_TRUE(backend->modelValue(y[5]));
}

/// As for minimization: the first cancelled probe ends the search, with no
/// index found.
TEST_P(IndexSearchTest, CancelledProbeEndsTheSearch) {
    const auto run = [&](std::uint64_t cancelFrom) {
        std::uint64_t solves = 0;
        test::CancellingBackend backend(cancelFrom, solves);
        const auto y = makeChain(backend, 10, 5);
        const auto result = smallestFeasibleIndex(
            backend, [&](int t) { return y[t]; }, 0, 9, GetParam());
        EXPECT_EQ(result.solveCalls, solves);
        return result;
    };
    const auto uncancelled = run(UINT64_MAX);
    ASSERT_TRUE(uncancelled.feasible);
    for (std::uint64_t cancelFrom = 1; cancelFrom <= uncancelled.solveCalls; ++cancelFrom) {
        SCOPED_TRACE("cancelled from solve " + std::to_string(cancelFrom));
        IndexSearchResult cancelled{.feasible = true};
        EXPECT_NO_THROW(cancelled = run(cancelFrom));
        EXPECT_FALSE(cancelled.feasible);
        EXPECT_EQ(cancelled.solveCalls, cancelFrom);
    }
}

TEST_P(IndexSearchTest, ReportsInfeasibleRange) {
    const auto backend = cnf::makeInternalBackend();
    std::vector<Literal> y = makeInputs(*backend, 4);
    for (Literal l : y) {
        backend->addClause({~l});
    }
    const auto result = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 0, 3, GetParam());
    EXPECT_FALSE(result.feasible);
}

TEST_P(IndexSearchTest, WholeRangeFeasibleReturnsLowerBound) {
    const auto backend = cnf::makeInternalBackend();
    std::vector<Literal> y = makeInputs(*backend, 4);
    const auto result = smallestFeasibleIndex(
        *backend, [&](int t) { return y[t]; }, 1, 3, GetParam());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.index, 1);
}

/// The probes each strategy makes on a 0..9 chain whose first feasible
/// index is `firstFeasible` (10: none). `Binary` gallops up from the lower
/// bound, so a tight bound costs it one or two calls.
std::vector<int> probesOnChain(SearchStrategy strategy, int firstFeasible) {
    ProbeRecordingBackend backend;
    const auto y = makeChain(backend, 10, firstFeasible);
    const auto result =
        smallestFeasibleIndex(backend, [&](int t) { return y[t]; }, 0, 9, strategy);
    EXPECT_EQ(result.feasible, firstFeasible <= 9);
    if (result.feasible) {
        EXPECT_EQ(result.index, firstFeasible);
        EXPECT_TRUE(backend.modelValue(y[firstFeasible]));
    }
    EXPECT_EQ(result.solveCalls, backend.probes.size());
    return backend.probes;
}

std::vector<int> descending(int from, int to) {
    std::vector<int> out;
    for (int t = from; t >= to; --t) {
        out.push_back(t);
    }
    return out;
}

TEST_P(IndexSearchTest, FeasibleLowerBoundIsOneProbeUnlessLinearDown) {
    const std::vector<int> expected =
        GetParam() == SearchStrategy::LinearDown ? descending(9, 0) : std::vector<int>{0};
    EXPECT_EQ(probesOnChain(GetParam(), 0), expected);
}

TEST_P(IndexSearchTest, OptimumJustAboveTheLowerBound) {
    const std::vector<int> expected =
        GetParam() == SearchStrategy::LinearDown ? descending(9, 0) : std::vector<int>{0, 1};
    EXPECT_EQ(probesOnChain(GetParam(), 1), expected);
}

TEST_P(IndexSearchTest, InfeasibleRangeProbes) {
    std::vector<int> expected;
    switch (GetParam()) {
        case SearchStrategy::Binary: expected = {0, 1, 3, 7, 9}; break;
        case SearchStrategy::LinearDown: expected = {9}; break;
    }
    EXPECT_EQ(probesOnChain(GetParam(), 10), expected);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, IndexSearchTest,
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

/// Regression: smallestFeasibleIndex never re-solves at the optimum. The
/// backend holds the model of the last SAT probe, which was at the returned
/// index, whether or not UNSAT probes followed it.
TEST(Minimize, SkipsRedundantTrailingResolve) {
    {
        // Binary gallops 0, 1, 3, 7 (the first SAT), bisects 5 (SAT) and
        // ends on the UNSAT 4 with the model of 5: 6 calls.
        ProbeRecordingBackend backend;
        const auto y = makeChain(backend, 10, 5);
        const auto result = smallestFeasibleIndex(
            backend, [&](int t) { return y[t]; }, 0, 9, SearchStrategy::Binary);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.index, 5);
        EXPECT_EQ(result.solveCalls, 6U);
        EXPECT_EQ(backend.probes, (std::vector<int>{0, 1, 3, 7, 5, 4}));
        EXPECT_TRUE(backend.modelValue(y[5]));
    }
    {
        // LinearDown's last probe is the UNSAT stop at 4, and the model of
        // 5 stays: 6 calls.
        const auto backend = cnf::makeInternalBackend();
        const auto y = makeChain(*backend, 10, 5);
        const auto result = smallestFeasibleIndex(
            *backend, [&](int t) { return y[t]; }, 0, 9, SearchStrategy::LinearDown);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.index, 5);
        EXPECT_EQ(result.solveCalls, 6U);
        EXPECT_TRUE(backend->modelValue(y[5]));
    }
    {
        // A fully feasible range walks LinearDown to the lower bound and
        // ends SAT right there: 3 calls.
        const auto backend = cnf::makeInternalBackend();
        const auto y = makeInputs(*backend, 4);
        const auto result = smallestFeasibleIndex(
            *backend, [&](int t) { return y[t]; }, 1, 3, SearchStrategy::LinearDown);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.index, 1);
        EXPECT_EQ(result.solveCalls, 3U);
        EXPECT_TRUE(backend->modelValue(y[1]));
    }
}

/// Regression: minimizeTrueLiterals never re-solves at the optimum, after a
/// final SAT or UNSAT probe alike. Either way the model left behind counts
/// the optimum.
TEST(Minimize, SkipsRedundantTrailingResolveInBorderSearch) {
    struct Case {
        SearchStrategy strategy;
        bool covering;  ///< three disjoint demands (optimum 3), else none (0)
        std::uint64_t solveCalls;
    };
    const Case cases[] = {
        // Five free literals: both strategies end on a SAT probe at 0.
        // LinearDown: first solve, atMost(4), atMost(0). Binary: first
        // solve, atMost(2), atMost(0).
        {SearchStrategy::LinearDown, false, 3U},
        {SearchStrategy::Binary, false, 3U},
        // Three disjoint demands: both end on the UNSAT atMost(2) and keep
        // the model of 3.
        {SearchStrategy::LinearDown, true, 3U},
        {SearchStrategy::Binary, true, 4U},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(std::string(toString(c.strategy)) + (c.covering ? ", covering" : ", free"));
        const auto backend = cnf::makeInternalBackend();
        const auto soft = makeInputs(*backend, c.covering ? 6 : 5);
        if (c.covering) {
            backend->addClause({soft[0], soft[1]});
            backend->addClause({soft[2], soft[3]});
            backend->addClause({soft[4], soft[5]});
        }
        const int optimum = c.covering ? 3 : 0;
        const auto result = minimizeTrueLiterals(*backend, soft, c.strategy);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.optimum, optimum);
        EXPECT_EQ(result.solveCalls, c.solveCalls);
        int count = 0;
        for (Literal l : soft) {
            count += backend->modelValue(l) ? 1 : 0;
        }
        EXPECT_EQ(count, optimum);
    }
}

TEST(Minimize, RejectsEmptyRange) {
    const auto backend = cnf::makeInternalBackend();
    const auto y = makeInputs(*backend, 2);
    EXPECT_THROW(smallestFeasibleIndex(*backend, [&](int t) { return y[t]; }, 2, 1),
                 PreconditionError);
}

}  // namespace
}  // namespace etcs::opt
