// Clause-database compaction tests: solving behaviour must be unchanged by
// garbage collection, and the automatic trigger must reclaim arena space.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "sat/solver.hpp"

namespace etcs::sat {
namespace {

Literal pos(Var v) { return Literal::positive(v); }
Literal neg(Var v) { return Literal::negative(v); }

void addPigeonhole(Solver& solver, int pigeons, int holes) {
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (auto& row : p) {
        std::vector<Literal> atLeast;
        for (Var& v : row) {
            v = solver.addVariable();
            atLeast.push_back(pos(v));
        }
        solver.addClause(atLeast);
    }
    for (int j = 0; j < holes; ++j) {
        for (int i = 0; i < pigeons; ++i) {
            for (int k = i + 1; k < pigeons; ++k) {
                solver.addClause({neg(p[i][j]), neg(p[k][j])});
            }
        }
    }
}

TEST(GarbageCollection, ManualCompactionPreservesResults) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> varDist(0, 11);
    std::bernoulli_distribution signDist(0.5);
    for (int round = 0; round < 10; ++round) {
        Solver compacted;
        Solver reference;
        for (int v = 0; v < 12; ++v) {
            compacted.addVariable();
            reference.addVariable();
        }
        for (int c = 0; c < 48; ++c) {
            std::vector<Literal> clause;
            for (int k = 0; k < 3; ++k) {
                clause.push_back(Literal(varDist(rng), signDist(rng)));
            }
            compacted.addClause(clause);
            reference.addClause(clause);
        }
        // Interleave solving under assumptions with forced compactions.
        for (int probe = 0; probe < 6; ++probe) {
            const Literal assumption(varDist(rng), signDist(rng));
            const auto a = compacted.solve({assumption});
            const auto b = reference.solve({assumption});
            EXPECT_EQ(a, b) << "round " << round << " probe " << probe;
            compacted.compactClauseDatabase();
        }
        EXPECT_EQ(compacted.solve(), reference.solve()) << "round " << round;
    }
}

/// Binary clauses are watched through tagged ClauseRefs, which compaction
/// must relocate like any other. Mixed 2/3-SAT with a tiny learnt-database
/// floor gives input binaries, learnt binaries and reductions; since
/// compaction changes no search decision, verdicts, models and counters
/// must equal the uncompacted reference's.
TEST(GarbageCollection, ManualCompactionPreservesBinaryClauses) {
    std::mt19937 rng(11);
    const int numVars = 80;
    std::uniform_int_distribution<int> varDist(0, numVars - 1);
    std::bernoulli_distribution signDist(0.5);
    int satProbes = 0;
    int unsatProbes = 0;
    std::uint64_t removed = 0;
    for (int round = 0; round < 10; ++round) {
        Solver compacted;
        Solver reference;
        for (Solver* solver : {&compacted, &reference}) {
            solver->options().learntSizeFloor = 8;
            solver->options().learntSizeFactor = 0.01;
            for (int v = 0; v < numVars; ++v) {
                solver->addVariable();
            }
        }
        for (int c = 0; c < 280; ++c) {
            std::vector<Literal> clause;
            for (int k = 0; k < (c % 12 == 0 ? 2 : 3); ++k) {
                clause.push_back(Literal(varDist(rng), signDist(rng)));
            }
            compacted.addClause(clause);
            reference.addClause(clause);
        }
        for (int probe = 0; probe < 6; ++probe) {
            const std::vector<Literal> assumptions{Literal(varDist(rng), signDist(rng)),
                                                   Literal(varDist(rng), signDist(rng))};
            const auto a = compacted.solve(assumptions);
            const auto b = reference.solve(assumptions);
            ASSERT_EQ(a, b) << "round " << round << " probe " << probe;
            if (a == SolveStatus::Sat) {
                ++satProbes;
                for (Var v = 0; v < numVars; ++v) {
                    EXPECT_EQ(compacted.modelValue(v), reference.modelValue(v))
                        << "round " << round << " probe " << probe << " variable " << v;
                }
            } else {
                ++unsatProbes;
            }
            compacted.compactClauseDatabase();
        }
        EXPECT_EQ(compacted.solve(), reference.solve()) << "round " << round;
        EXPECT_EQ(compacted.stats().conflicts, reference.stats().conflicts);
        EXPECT_EQ(compacted.stats().propagations, reference.stats().propagations);
        removed += reference.stats().removedClauses;
    }
    EXPECT_GT(satProbes, 0);
    EXPECT_GT(unsatProbes, 0);
    EXPECT_GT(removed, 0U);
}

TEST(GarbageCollection, CompactionReclaimsWastedWords) {
    Solver solver;
    // Aggressive clause-DB reduction so clauses get freed.
    solver.options().learntSizeFactor = 0.001;
    addPigeonhole(solver, 8, 7);
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    // Either the automatic trigger already compacted, or waste remains and a
    // manual compaction removes it.
    if (solver.stats().garbageCollections == 0) {
        const std::size_t before = solver.wastedArenaWords();
        solver.compactClauseDatabase();
        EXPECT_LE(solver.wastedArenaWords(), before);
    }
    EXPECT_EQ(solver.wastedArenaWords(), 0u);
}

TEST(GarbageCollection, AutomaticTriggerFiresOnHardInstances) {
    Solver solver;
    solver.options().learntSizeFactor = 0.001;
    addPigeonhole(solver, 9, 8);
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    EXPECT_GT(solver.stats().removedClauses, 0u);
    EXPECT_GT(solver.stats().garbageCollections, 0u);
}

TEST(GarbageCollection, SolvingContinuesAfterCompactionMidSearch) {
    // Compaction between incremental calls with a model check afterwards.
    Solver solver;
    std::vector<Var> x;
    for (int i = 0; i < 20; ++i) {
        x.push_back(solver.addVariable());
    }
    for (int i = 0; i + 1 < 20; i += 2) {
        solver.addClause({pos(x[i]), pos(x[i + 1])});
        solver.addClause({neg(x[i]), neg(x[i + 1])});
    }
    ASSERT_EQ(solver.solve({pos(x[0])}), SolveStatus::Sat);
    solver.compactClauseDatabase();
    ASSERT_EQ(solver.solve({neg(x[0])}), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(x[1]), Value::True);
    solver.addClause({pos(x[0])});
    solver.compactClauseDatabase();
    EXPECT_EQ(solver.solve({neg(x[0])}), SolveStatus::Unsat);
}

}  // namespace
}  // namespace etcs::sat
