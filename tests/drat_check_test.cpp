// DRAT subsystem tests: proof serialization round-trips, hand-crafted
// RUP/RAT proofs the checker must accept, and corrupted or vacuous proofs
// it must reject.
#include <gtest/gtest.h>

#include <sstream>

#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "util/error.hpp"

namespace etcs::sat {
namespace {

Literal pos(int v) { return Literal::positive(v); }
Literal neg(int v) { return Literal::negative(v); }

/// Shorthand for building a formula from DIMACS-style integers.
CnfFormula formulaOf(int numVariables, std::initializer_list<std::vector<int>> clauses) {
    CnfFormula f;
    f.numVariables = numVariables;
    for (const auto& ints : clauses) {
        std::vector<Literal> clause;
        for (int i : ints) {
            clause.push_back(Literal(std::abs(i) - 1, i < 0));
        }
        f.clauses.push_back(std::move(clause));
    }
    return f;
}

DratStep addition(std::initializer_list<int> ints) {
    DratStep step;
    for (int i : ints) {
        step.literals.push_back(Literal(std::abs(i) - 1, i < 0));
    }
    return step;
}

DratStep deletion(std::initializer_list<int> ints) {
    DratStep step = addition(ints);
    step.isDeletion = true;
    return step;
}

// ---------------------------------------------------------------- writers --

TEST(DratProof, TextRoundTrip) {
    DratProof proof;
    proof.steps = {addition({1, -2}), deletion({3}), addition({})};
    std::stringstream buffer;
    TextDratWriter writer(buffer);
    writeDrat(writer, proof);
    EXPECT_EQ(writer.additions(), 2u);
    EXPECT_EQ(writer.deletions(), 1u);
    const DratProof parsed = readDratText(buffer);
    ASSERT_EQ(parsed.steps.size(), 3u);
    EXPECT_EQ(parsed.steps[0].literals, proof.steps[0].literals);
    EXPECT_FALSE(parsed.steps[0].isDeletion);
    EXPECT_TRUE(parsed.steps[1].isDeletion);
    EXPECT_TRUE(parsed.steps[2].literals.empty());
}

TEST(DratProof, BinaryRoundTripWithLargeVariables) {
    DratProof proof;
    DratStep wide;
    // Multi-byte varints: variables 0, 127, 128, 1'000'000.
    wide.literals = {pos(0), neg(127), pos(128), neg(1'000'000)};
    proof.steps = {wide, deletion({5, -6}), addition({})};
    std::stringstream buffer;
    BinaryDratWriter writer(buffer);
    writeDrat(writer, proof);
    const DratProof parsed = readDratBinary(buffer);
    ASSERT_EQ(parsed.steps.size(), 3u);
    EXPECT_EQ(parsed.steps[0].literals, wide.literals);
    EXPECT_TRUE(parsed.steps[1].isDeletion);
    EXPECT_EQ(parsed.steps[1].literals, proof.steps[1].literals);
}

TEST(DratProof, ReadDratSniffsFormat) {
    DratProof proof;
    proof.steps = {addition({1, 2}), addition({})};
    std::stringstream text;
    TextDratWriter textWriter(text);
    writeDrat(textWriter, proof);
    EXPECT_EQ(readDrat(text).steps.size(), 2u);

    std::stringstream binary;
    BinaryDratWriter binaryWriter(binary);
    writeDrat(binaryWriter, proof);
    EXPECT_EQ(readDrat(binary).steps.size(), 2u);
}

TEST(DratProof, MemoryWriterRecordsSteps) {
    MemoryProofWriter writer;
    writer.addClause({pos(0), neg(1)});
    writer.deleteClause({pos(2)});
    writer.addEmptyClause();
    const DratProof& proof = writer.proof();
    ASSERT_EQ(proof.steps.size(), 3u);
    EXPECT_FALSE(proof.steps[0].isDeletion);
    EXPECT_TRUE(proof.steps[1].isDeletion);
    EXPECT_TRUE(proof.steps[2].literals.empty());
    EXPECT_EQ(writer.additions(), 2u);
    EXPECT_EQ(writer.deletions(), 1u);
}

/// Out-of-range variable numbers are input errors in both formats, never
/// wrapped into a literal the proof does not contain. Pigeonhole 3 into 2
/// is the formula of CI's proof check; its solver proof is "-1 0", "0".
TEST(DratProof, TextReaderRejectsLiteralThatWouldWrap) {
    const CnfFormula php = formulaOf(
        6, {{1, 2}, {3, 4}, {5, 6}, {-1, -3}, {-1, -5}, {-3, -5}, {-2, -4}, {-2, -6}, {-4, -6}});
    std::istringstream proof("-1 0\n0\n");
    EXPECT_TRUE(checkDrat(php, readDrat(proof)).verified);
    // -4294967297 once read as -1, and the rewritten proof was VERIFIED.
    std::istringstream wrapped("-4294967297 0\n0\n");
    EXPECT_THROW((void)readDrat(wrapped), InputError);
}

/// A leading lemma on variable 2^31 once corrupted the checker's heap, and
/// one on variable two billion made it size its tables for that many.
TEST(DratProof, TextReaderRejectsVariablesAboveTheLiteralRange) {
    for (const char* lemma : {"2147483648 0\n", "2000000000 0\n"}) {
        SCOPED_TRACE(lemma);
        std::istringstream in(std::string(lemma) + "-1 0\n0\n");
        EXPECT_THROW((void)readDrat(in), InputError);
    }
}

/// std::abs(LLONG_MIN) is undefined; the reader never takes it.
TEST(DratProof, TextReaderRejectsTheMostNegativeInteger) {
    std::istringstream in("-9223372036854775808 0\n");
    EXPECT_THROW((void)readDratText(in), InputError);
}

TEST(DratProof, BinaryReaderBoundsVariablesByTheLiteralRange) {
    // Varint codes 2 * 2^30 (variable 2^30, the largest accepted) and
    // 2 * 2^31 + 1 (variable -2^31), each in an 'a' step ended by 0.
    std::istringstream atBound(std::string("a\x80\x80\x80\x80\x08\0", 7));
    const DratProof proof = readDratBinary(atBound);
    ASSERT_EQ(proof.steps.size(), 1u);
    EXPECT_EQ(proof.steps[0].literals, std::vector<Literal>{pos((1 << 30) - 1)});
    std::istringstream above(std::string("a\x81\x80\x80\x80\x10\0", 7));
    EXPECT_THROW((void)readDratBinary(above), InputError);
}

// ---------------------------------------------------------------- checker --

TEST(DratCheck, AcceptsHandCraftedRupProof) {
    // All four binary clauses over {a, b}: UNSAT. Lemma (a) is RUP
    // (assume -a: clause 1 gives b, clause 4 gives -b), then the empty
    // clause follows by propagation.
    const CnfFormula f = formulaOf(2, {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}});
    DratProof proof;
    proof.steps = {addition({1}), addition({})};
    const DratCheckResult result = checkDrat(f, proof);
    EXPECT_TRUE(result.verified) << result.error;
    EXPECT_GE(result.stats.verifiedLemmas, 1u);
    EXPECT_EQ(result.stats.ratLemmas, 0u);
    EXPECT_GT(result.stats.coreClauses, 0u);
}

TEST(DratCheck, AcceptsRatLemma) {
    // (a) is not RUP here, but it is RAT on pivot a: both resolvents —
    // (b) via clause 1 and (c) via clause 2 — are RUP thanks to the
    // (b|d),(b|-d) and (c|e),(c|-e) pairs. Once (a) is added, unit
    // propagation reaches the conflict through (-b|-c).
    const CnfFormula f = formulaOf(
        5, {{-1, 2}, {-1, 3}, {2, 4}, {2, -4}, {3, 5}, {3, -5}, {-2, -3}});
    DratProof proof;
    proof.steps = {addition({1}), addition({})};
    const DratCheckResult result = checkDrat(f, proof);
    EXPECT_TRUE(result.verified) << result.error;
    EXPECT_EQ(result.stats.ratLemmas, 1u);
}

TEST(DratCheck, HandlesDeletionSteps) {
    // The (3 4) clause plays no part in the refutation; deleting it first
    // exercises the forward deactivation and backward reactivation paths
    // while the remaining clauses still derive the conflict.
    const CnfFormula f = formulaOf(4, {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}, {3, 4}});
    DratProof proof;
    proof.steps = {deletion({3, 4}), addition({1}), addition({})};
    const DratCheckResult result = checkDrat(f, proof);
    EXPECT_TRUE(result.verified) << result.error;
    EXPECT_EQ(result.stats.skippedDeletions, 0u);
}

TEST(DratCheck, AcceptsFormulaWithEmptyClause) {
    const CnfFormula f = formulaOf(1, {{1}, {}});
    const DratCheckResult result = checkDrat(f, DratProof{});
    EXPECT_TRUE(result.verified) << result.error;
}

TEST(DratCheck, RejectsEmptyProofOfNonTrivialFormula) {
    const CnfFormula f = formulaOf(2, {{1, 2}, {-1, -2}});
    const DratCheckResult result = checkDrat(f, DratProof{});
    EXPECT_FALSE(result.verified);
    EXPECT_FALSE(result.error.empty());
}

TEST(DratCheck, RejectsAssertedButUnderivedEmptyClause) {
    // PHP(3,2) has no unit clauses, so a proof consisting of the bare
    // empty clause asserts a conflict that unit propagation cannot reach.
    const CnfFormula php = formulaOf(6, {{1, 2},
                                         {3, 4},
                                         {5, 6},
                                         {-1, -3},
                                         {-1, -5},
                                         {-3, -5},
                                         {-2, -4},
                                         {-2, -6},
                                         {-4, -6}});
    DratProof proof;
    proof.steps = {addition({})};
    const DratCheckResult result = checkDrat(php, proof);
    EXPECT_FALSE(result.verified);
    EXPECT_FALSE(result.error.empty());
}

TEST(DratCheck, RejectsNonRupNonRatLemma) {
    // (-2) is neither RUP (assuming b triggers no propagation conflict)
    // nor RAT (the resolvent (-1) is not RUP), yet adding it makes unit
    // propagation conflict — the backward pass must catch the bogus lemma.
    const CnfFormula f = formulaOf(2, {{1, 2}, {-1, 2}, {1, -2}});
    DratProof proof;
    proof.steps = {addition({-2}), addition({})};
    const DratCheckResult result = checkDrat(f, proof);
    EXPECT_FALSE(result.verified);
    EXPECT_FALSE(result.error.empty());
}

TEST(DratCheck, RejectsCorruptedSolverProof) {
    // A genuine solver proof of PHP(4,3), corrupted by dropping every
    // addition except the final empty clause. What remains asserts the
    // conflict without deriving it.
    CnfFormula php;
    php.numVariables = 12;
    const auto litOf = [](int pigeon, int hole) {
        return Literal::positive(pigeon * 3 + hole);
    };
    for (int p = 0; p < 4; ++p) {
        std::vector<Literal> atLeast;
        for (int h = 0; h < 3; ++h) {
            atLeast.push_back(litOf(p, h));
        }
        php.clauses.push_back(atLeast);
    }
    for (int h = 0; h < 3; ++h) {
        for (int p1 = 0; p1 < 4; ++p1) {
            for (int p2 = p1 + 1; p2 < 4; ++p2) {
                php.clauses.push_back({~litOf(p1, h), ~litOf(p2, h)});
            }
        }
    }

    MemoryProofWriter writer;
    Solver solver;
    solver.setProofWriter(&writer);
    for (int v = 0; v < php.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : php.clauses) {
        solver.addClause(clause);
    }
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);

    const DratProof genuine = writer.proof();
    ASSERT_TRUE(checkDrat(php, genuine).verified);

    DratProof corrupted;
    for (const DratStep& step : genuine.steps) {
        if (!step.isDeletion && !step.literals.empty()) {
            continue;  // drop every real lemma
        }
        corrupted.steps.push_back(step);
    }
    ASSERT_LT(corrupted.steps.size(), genuine.steps.size());
    const DratCheckResult result = checkDrat(php, corrupted);
    EXPECT_FALSE(result.verified);
    EXPECT_FALSE(result.error.empty());
}

TEST(DratCheck, TruncatedSolverProof) {
    const CnfFormula f = formulaOf(2, {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}});
    MemoryProofWriter writer;
    Solver solver;
    solver.setProofWriter(&writer);
    solver.addVariable();
    solver.addVariable();
    for (const auto& clause : f.clauses) {
        solver.addClause(clause);
    }
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);

    // Dropping only the trailing empty clause must still verify: the
    // remaining lemmas reach the conflict by propagation alone.
    DratProof withoutTerminal = writer.proof();
    ASSERT_FALSE(withoutTerminal.steps.empty());
    ASSERT_TRUE(withoutTerminal.steps.back().literals.empty());
    withoutTerminal.steps.pop_back();
    EXPECT_TRUE(checkDrat(f, withoutTerminal).verified);

    // Dropping all additions as well leaves nothing that derives one.
    DratProof gutted;
    for (const DratStep& step : withoutTerminal.steps) {
        if (step.isDeletion) {
            gutted.steps.push_back(step);
        }
    }
    EXPECT_FALSE(checkDrat(f, gutted).verified);
}

TEST(DratCheck, SkipsDeletionOfUnknownClause) {
    const CnfFormula f = formulaOf(2, {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}});
    DratProof proof;
    proof.steps = {deletion({1, 2, -2}),  // never existed
                   addition({1}), addition({})};
    const DratCheckResult result = checkDrat(f, proof);
    EXPECT_TRUE(result.verified) << result.error;
    EXPECT_EQ(result.stats.skippedDeletions, 1u);
}

}  // namespace
}  // namespace etcs::sat
