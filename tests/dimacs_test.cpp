// DIMACS reader/writer tests.
#include <gtest/gtest.h>

#include <sstream>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/error.hpp"

namespace etcs::sat {
namespace {

TEST(Dimacs, ParsesSimpleFormula) {
    std::istringstream in(
        "c a comment\n"
        "p cnf 3 2\n"
        "1 -2 0\n"
        "2 3 0\n");
    const CnfFormula f = readDimacs(in);
    EXPECT_EQ(f.numVariables, 3);
    ASSERT_EQ(f.clauses.size(), 2u);
    EXPECT_EQ(f.clauses[0][0], Literal::positive(0));
    EXPECT_EQ(f.clauses[0][1], Literal::negative(1));
    EXPECT_EQ(f.clauses[1][1], Literal::positive(2));
}

TEST(Dimacs, ParsesMultipleClausesPerLine) {
    std::istringstream in("p cnf 2 2\n1 0 -2 0\n");
    const CnfFormula f = readDimacs(in);
    EXPECT_EQ(f.clauses.size(), 2u);
}

TEST(Dimacs, RoundTrip) {
    CnfFormula f;
    f.numVariables = 4;
    f.clauses = {{Literal::positive(0), Literal::negative(3)},
                 {Literal::negative(1), Literal::positive(2), Literal::positive(3)},
                 {Literal::negative(0)}};
    std::stringstream buffer;
    writeDimacs(buffer, f);
    const CnfFormula parsed = readDimacs(buffer);
    EXPECT_EQ(parsed.numVariables, f.numVariables);
    EXPECT_EQ(parsed.clauses, f.clauses);
}

TEST(Dimacs, ParsesEmptyClause) {
    // A bare "0" is the empty clause — trivially unsatisfiable, but legal
    // DIMACS.
    std::istringstream in("p cnf 2 2\n1 2 0\n0\n");
    const CnfFormula f = readDimacs(in);
    ASSERT_EQ(f.clauses.size(), 2u);
    EXPECT_EQ(f.clauses[0].size(), 2u);
    EXPECT_TRUE(f.clauses[1].empty());
}

TEST(Dimacs, EmptyClauseRoundTrips) {
    CnfFormula f;
    f.numVariables = 1;
    f.clauses = {{Literal::positive(0)}, {}};
    std::stringstream buffer;
    writeDimacs(buffer, f);
    const CnfFormula parsed = readDimacs(buffer);
    EXPECT_EQ(parsed.clauses, f.clauses);
}

TEST(Dimacs, ParsesZeroVariableFormula) {
    // "p cnf 0 0" is the vacuously satisfiable empty formula.
    std::istringstream in("p cnf 0 0\n");
    const CnfFormula f = readDimacs(in);
    EXPECT_EQ(f.numVariables, 0);
    EXPECT_TRUE(f.clauses.empty());
    std::stringstream buffer;
    writeDimacs(buffer, f);
    const CnfFormula parsed = readDimacs(buffer);
    EXPECT_EQ(parsed.numVariables, 0);
    EXPECT_TRUE(parsed.clauses.empty());
}

TEST(Dimacs, AllowsCommentsBetweenClauses) {
    std::istringstream in(
        "c leading comment\n"
        "p cnf 2 2\n"
        "1 2 0\n"
        "c interleaved comment\n"
        "-1 -2 0\n"
        "c trailing comment\n");
    const CnfFormula f = readDimacs(in);
    ASSERT_EQ(f.clauses.size(), 2u);
    EXPECT_EQ(f.clauses[1][0], Literal::negative(0));
}

TEST(Dimacs, AllowsCommentInsideSplitClause) {
    // A clause may span lines; comments in between must not break it.
    std::istringstream in(
        "p cnf 3 1\n"
        "1 2\n"
        "c mid-clause comment\n"
        "3 0\n");
    const CnfFormula f = readDimacs(in);
    ASSERT_EQ(f.clauses.size(), 1u);
    EXPECT_EQ(f.clauses[0].size(), 3u);
}

TEST(Dimacs, RejectsHeaderWithMissingCounts) {
    std::istringstream varsOnly("p cnf 3\n1 0\n");
    EXPECT_THROW(readDimacs(varsOnly), InputError);
    std::istringstream noCounts("p cnf\n1 0\n");
    EXPECT_THROW(readDimacs(noCounts), InputError);
}

TEST(Dimacs, RejectsNonNumericToken) {
    std::istringstream in("p cnf 2 1\n1 x 2 0\n");
    EXPECT_THROW(readDimacs(in), InputError);
}

TEST(Dimacs, RejectsMissingHeader) {
    std::istringstream in("1 2 0\n");
    EXPECT_THROW(readDimacs(in), InputError);
}

TEST(Dimacs, RejectsClauseCountMismatch) {
    std::istringstream in("p cnf 2 5\n1 0\n");
    EXPECT_THROW(readDimacs(in), InputError);
}

TEST(Dimacs, RejectsOutOfRangeLiteral) {
    std::istringstream in("p cnf 2 1\n3 0\n");
    EXPECT_THROW(readDimacs(in), InputError);
}

/// A variable count beyond int32 is rejected, not wrapped (4294967298 once
/// read as 2 variables).
TEST(Dimacs, RejectsVariableCountThatWouldWrap) {
    std::istringstream in("p cnf 4294967298 1\n1 2 0\n");
    EXPECT_THROW(readDimacs(in), InputError);
}

/// A literal beyond int32 is rejected, not wrapped (4294967297 once read as
/// 1), and LLONG_MIN, whose magnitude no long long holds, too.
TEST(Dimacs, RejectsLiteralThatWouldWrap) {
    std::istringstream wrapped("p cnf 3 2\n4294967297 0\n-1 0\n");
    EXPECT_THROW(readDimacs(wrapped), InputError);
    std::istringstream minimum("p cnf 3 1\n-9223372036854775808 0\n");
    EXPECT_THROW(readDimacs(minimum), InputError);
}

/// Variable numbers stop at kMaxDimacsVariable = 2^30, the last whose
/// literal code fits in int32. A header of two billion variables once
/// passed and exhausted memory in the solver.
TEST(Dimacs, BoundsVariablesByTheLiteralRange) {
    std::istringstream huge("p cnf 2000000000 1\n1 0\n");
    EXPECT_THROW(readDimacs(huge), InputError);
    std::istringstream atBound("p cnf 1073741824 1\n-1073741824 0\n");
    const CnfFormula f = readDimacs(atBound);
    EXPECT_EQ(f.numVariables, 1 << 30);
    ASSERT_EQ(f.clauses.size(), 1u);
    EXPECT_EQ(f.clauses[0], std::vector<Literal>{Literal::negative((1 << 30) - 1)});
}

TEST(Dimacs, RejectsUnterminatedClause) {
    std::istringstream in("p cnf 2 1\n1 2\n");
    EXPECT_THROW(readDimacs(in), InputError);
}

TEST(Dimacs, ParsedFormulaSolvesCorrectly) {
    std::istringstream in(
        "p cnf 3 4\n"
        "1 2 0\n"
        "-1 2 0\n"
        "1 -2 0\n"
        "-2 -3 0\n");
    const CnfFormula f = readDimacs(in);
    Solver solver;
    for (int v = 0; v < f.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : f.clauses) {
        solver.addClause(clause);
    }
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(Var{0}), Value::True);
    EXPECT_EQ(solver.modelValue(Var{1}), Value::True);
    EXPECT_EQ(solver.modelValue(Var{2}), Value::False);
}

}  // namespace
}  // namespace etcs::sat
