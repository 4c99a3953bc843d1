// Unit tests for the CDCL solver: propagation, conflicts, models,
// assumptions, cores, and option behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "sat/solver.hpp"
#include "support/formula_helpers.hpp"

namespace etcs::sat {
namespace {

Literal pos(Var v) { return Literal::positive(v); }
Literal neg(Var v) { return Literal::negative(v); }

TEST(Literal, Encoding) {
    const Literal l = pos(3);
    EXPECT_EQ(l.var(), 3);
    EXPECT_FALSE(l.sign());
    EXPECT_TRUE((~l).sign());
    EXPECT_EQ((~l).var(), 3);
    EXPECT_EQ(~~l, l);
    EXPECT_EQ(Literal::fromCode(l.code()), l);
}

TEST(Solver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), SolveStatus::Sat);
}

/// The first-decision contract cnf::addFalseFirstLiteral relies on: with the
/// default options a fresh variable is decided true first, so unconstrained
/// variables come out true in the model.
TEST(Solver, FreshUnconstrainedVariablesComeOutTrue) {
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 8; ++i) {
        vars.push_back(s.addVariable());
    }
    ASSERT_EQ(s.solve(), SolveStatus::Sat);
    for (const Var v : vars) {
        EXPECT_EQ(s.modelValue(v), Value::True) << "variable " << v;
    }
}

TEST(Solver, SingleUnit) {
    Solver s;
    const Var a = s.addVariable();
    s.addClause({pos(a)});
    ASSERT_EQ(s.solve(), SolveStatus::Sat);
    EXPECT_EQ(s.modelValue(a), Value::True);
}

TEST(Solver, ContradictingUnitsAreUnsat) {
    Solver s;
    const Var a = s.addVariable();
    s.addClause({pos(a)});
    EXPECT_FALSE(s.addClause({neg(a)}));
    EXPECT_FALSE(s.okay());
    EXPECT_EQ(s.solve(), SolveStatus::Unsat);
}

TEST(Solver, EmptyClauseIsUnsat) {
    Solver s;
    EXPECT_FALSE(s.addClause(std::span<const Literal>{}));
    EXPECT_EQ(s.solve(), SolveStatus::Unsat);
}

TEST(Solver, TautologyIsIgnored) {
    Solver s;
    const Var a = s.addVariable();
    EXPECT_TRUE(s.addClause({pos(a), neg(a)}));
    EXPECT_EQ(s.numClauses(), 0u);
    EXPECT_EQ(s.solve(), SolveStatus::Sat);
}

TEST(Solver, DuplicateLiteralsAreDeduplicated) {
    Solver s;
    const Var a = s.addVariable();
    const Var b = s.addVariable();
    s.addClause({pos(a), pos(a), pos(b), pos(b)});
    s.addClause({neg(a)});
    ASSERT_EQ(s.solve(), SolveStatus::Sat);
    EXPECT_EQ(s.modelValue(b), Value::True);
}

TEST(Solver, ImplicationChainPropagates) {
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 50; ++i) {
        vars.push_back(s.addVariable());
    }
    for (int i = 0; i + 1 < 50; ++i) {
        s.addClause({neg(vars[i]), pos(vars[i + 1])});
    }
    s.addClause({pos(vars[0])});
    ASSERT_EQ(s.solve(), SolveStatus::Sat);
    for (Var v : vars) {
        EXPECT_EQ(s.modelValue(v), Value::True);
    }
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
    // p[i][j]: pigeon i sits in hole j.
    Solver s;
    Var p[3][2];
    for (auto& row : p) {
        for (Var& v : row) {
            v = s.addVariable();
        }
    }
    for (auto& row : p) {
        s.addClause({pos(row[0]), pos(row[1])});
    }
    for (int j = 0; j < 2; ++j) {
        for (int i = 0; i < 3; ++i) {
            for (int k = i + 1; k < 3; ++k) {
                s.addClause({neg(p[i][j]), neg(p[k][j])});
            }
        }
    }
    EXPECT_EQ(s.solve(), SolveStatus::Unsat);
}

TEST(Solver, XorChainSat) {
    // x0 ^ x1 = 1, x1 ^ x2 = 1, ... and x0 = 0 pins everything.
    Solver s;
    std::vector<Var> x;
    for (int i = 0; i < 20; ++i) {
        x.push_back(s.addVariable());
    }
    for (int i = 0; i + 1 < 20; ++i) {
        s.addClause({pos(x[i]), pos(x[i + 1])});
        s.addClause({neg(x[i]), neg(x[i + 1])});
    }
    s.addClause({neg(x[0])});
    ASSERT_EQ(s.solve(), SolveStatus::Sat);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(s.modelValue(x[i]), i % 2 == 0 ? Value::False : Value::True);
    }
}

TEST(Solver, AssumptionsSelectBranch) {
    Solver s;
    const Var a = s.addVariable();
    const Var b = s.addVariable();
    s.addClause({pos(a), pos(b)});
    ASSERT_EQ(s.solve({neg(a)}), SolveStatus::Sat);
    EXPECT_EQ(s.modelValue(b), Value::True);
    ASSERT_EQ(s.solve({neg(b)}), SolveStatus::Sat);
    EXPECT_EQ(s.modelValue(a), Value::True);
}

TEST(Solver, IncrementalReuseAfterUnsatAssumptions) {
    Solver s;
    const Var a = s.addVariable();
    const Var b = s.addVariable();
    s.addClause({pos(a), pos(b)});
    EXPECT_EQ(s.solve({neg(a), neg(b)}), SolveStatus::Unsat);
    EXPECT_TRUE(s.okay());  // only the assumptions were contradictory
    EXPECT_EQ(s.solve(), SolveStatus::Sat);
    EXPECT_EQ(s.solve({neg(a)}), SolveStatus::Sat);
}

TEST(Solver, ConflictCoreIsSubsetOfAssumptions) {
    Solver s;
    const Var a = s.addVariable();
    const Var b = s.addVariable();
    const Var c = s.addVariable();
    s.addClause({neg(a), neg(b)});  // a & b impossible
    ASSERT_EQ(s.solve({pos(a), pos(b), pos(c)}), SolveStatus::Unsat);
    const auto& core = s.conflictCore();
    EXPECT_FALSE(core.empty());
    for (Literal l : core) {
        EXPECT_TRUE(l == pos(a) || l == pos(b) || l == pos(c));
    }
    // c is irrelevant; a and b must both appear in a minimal-ish core.
    EXPECT_LE(core.size(), 2u);
}

TEST(Solver, CoreFromRootLevelImplication) {
    Solver s;
    const Var a = s.addVariable();
    s.addClause({neg(a)});
    ASSERT_EQ(s.solve({pos(a)}), SolveStatus::Unsat);
    ASSERT_EQ(s.conflictCore().size(), 1u);
    EXPECT_EQ(s.conflictCore()[0], pos(a));
}

TEST(Solver, StatsAreCounted) {
    Solver s;
    std::vector<Var> x;
    for (int i = 0; i < 30; ++i) {
        x.push_back(s.addVariable());
    }
    // A formula that requires some search: pairwise exclusion rows.
    for (int i = 0; i + 2 < 30; i += 3) {
        s.addClause({pos(x[i]), pos(x[i + 1]), pos(x[i + 2])});
        s.addClause({neg(x[i]), neg(x[i + 1])});
        s.addClause({neg(x[i]), neg(x[i + 2])});
        s.addClause({neg(x[i + 1]), neg(x[i + 2])});
    }
    ASSERT_EQ(s.solve(), SolveStatus::Sat);
    EXPECT_GT(s.stats().decisions, 0u);
    EXPECT_GT(s.stats().propagations, 0u);
}

TEST(Solver, ConflictLimitReturnsUnknown) {
    // A hard pigeonhole instance with a tiny conflict budget.
    Solver s;
    constexpr int kPigeons = 9;
    constexpr int kHoles = 8;
    std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kHoles));
    for (auto& row : p) {
        std::vector<Literal> atLeast;
        for (Var& v : row) {
            v = s.addVariable();
            atLeast.push_back(pos(v));
        }
        s.addClause(atLeast);
    }
    for (int j = 0; j < kHoles; ++j) {
        for (int i = 0; i < kPigeons; ++i) {
            for (int k = i + 1; k < kPigeons; ++k) {
                s.addClause({neg(p[i][j]), neg(p[k][j])});
            }
        }
    }
    s.options().conflictLimit = 10;
    EXPECT_EQ(s.solve(), SolveStatus::Unknown);
}

TEST(Solver, RefutesPigeonholeWithRestarts) {
    // A refutation that needs learning and restarts: pigeonhole 7 into 6.
    const CnfFormula php = etcs::test::pigeonhole(7, 6);
    Solver s;
    for (int v = 0; v < php.numVariables; ++v) {
        s.addVariable();
    }
    for (const auto& clause : php.clauses) {
        s.addClause(clause);
    }
    EXPECT_EQ(s.solve(), SolveStatus::Unsat);
    EXPECT_GT(s.stats().restarts, 0u);
}

TEST(Solver, ManySolveCallsWithVaryingAssumptions) {
    Solver s;
    std::vector<Var> x;
    for (int i = 0; i < 10; ++i) {
        x.push_back(s.addVariable());
    }
    // Exactly-one (pairwise) over 10 variables.
    std::vector<Literal> all;
    for (Var v : x) {
        all.push_back(pos(v));
    }
    s.addClause(all);
    for (int i = 0; i < 10; ++i) {
        for (int j = i + 1; j < 10; ++j) {
            s.addClause({neg(x[i]), neg(x[j])});
        }
    }
    for (int i = 0; i < 10; ++i) {
        ASSERT_EQ(s.solve({pos(x[i])}), SolveStatus::Sat);
        for (int j = 0; j < 10; ++j) {
            EXPECT_EQ(s.modelValue(x[j]) == Value::True, i == j);
        }
    }
    // Assuming two distinct variables true is unsatisfiable.
    EXPECT_EQ(s.solve({pos(x[0]), pos(x[5])}), SolveStatus::Unsat);
}

TEST(Solver, RejectsUnknownVariableInClause) {
    Solver s;
    s.addVariable();
    EXPECT_THROW(s.addClause({pos(5)}), PreconditionError);
}

TEST(Solver, RejectsUnknownVariableInAssumption) {
    Solver s;
    s.addVariable();
    EXPECT_THROW(s.solve({pos(5)}), PreconditionError);
}

}  // namespace
}  // namespace etcs::sat
