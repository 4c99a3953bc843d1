// Differential correctness harness for the SAT core.
//
// Every instance is pushed through independently implemented pipelines —
// the internal CDCL solver and (when compiled in) Z3 — and the verdicts are
// cross-checked. SAT verdicts are validated by evaluating the model against
// the formula; UNSAT verdicts are certified by checking the emitted DRAT
// proof with the independent backward checker, including runs with forced
// clause-database reductions.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "cnf/backend.hpp"
#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "studies/studies.hpp"
#include "support/formula_helpers.hpp"
#include "support/paper_layouts.hpp"
#include "support/test_seed.hpp"

namespace etcs::sat {
namespace {

using etcs::test::makeRandomFormula;
using etcs::test::modelSatisfies;
using etcs::test::PaperLayout;
using etcs::test::pigeonhole;
using etcs::test::proofCertifies;

struct PipelineResult {
    SolveStatus status = SolveStatus::Unknown;
    std::vector<Value> model;  ///< populated on Sat, indexed by variable
    DratProof proof;           ///< populated when a proof writer was attached
};

/// The internal solver, logging a DRAT proof.
PipelineResult solvePlain(const CnfFormula& f, const SolverOptions* options = nullptr) {
    PipelineResult result;
    MemoryProofWriter proof;
    Solver solver;
    if (options != nullptr) {
        solver.options() = *options;
    }
    solver.setProofWriter(&proof);
    for (int v = 0; v < f.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : f.clauses) {
        solver.addClause(clause);
    }
    result.status = solver.solve();
    if (result.status == SolveStatus::Sat) {
        result.model.resize(static_cast<std::size_t>(f.numVariables));
        for (Var v = 0; v < f.numVariables; ++v) {
            result.model[static_cast<std::size_t>(v)] = solver.modelValue(v);
        }
    }
    result.proof = proof.takeProof();
    return result;
}

#ifdef ETCS_HAVE_Z3
/// Z3, a fully independent solver implementation.
SolveStatus solveZ3(const CnfFormula& f) {
    const auto backend = cnf::makeZ3Backend();
    for (int v = 0; v < f.numVariables; ++v) {
        backend->addVariable();
    }
    for (const auto& clause : f.clauses) {
        backend->addClause(clause);
    }
    return backend->solve();
}
#endif

/// (variables, clauses, clause size, seed) — one batch of the sweep.
using DiffCase = std::tuple<int, int, int, unsigned>;

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DifferentialTest, PipelinesAgreeAndVerdictsAreCertified) {
    const auto [numVariables, numClauses, clauseSize, baseSeed] = GetParam();
    const unsigned seed = etcs::test::effectiveSeed(baseSeed);
    SCOPED_TRACE(etcs::test::seedTrace(seed));
    std::mt19937 rng(seed);

    int satCount = 0;
    int unsatCount = 0;
    for (int round = 0; round < 25; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const CnfFormula f = makeRandomFormula(rng, numVariables, numClauses, clauseSize);

        const PipelineResult plain = solvePlain(f);
        ASSERT_NE(plain.status, SolveStatus::Unknown);
#ifdef ETCS_HAVE_Z3
        ASSERT_EQ(plain.status, solveZ3(f));
#endif

        if (plain.status == SolveStatus::Sat) {
            ++satCount;
            EXPECT_TRUE(modelSatisfies(f, plain.model));
        } else {
            ++unsatCount;
            EXPECT_TRUE(proofCertifies(f, plain.proof));
        }
    }
    // The sweep spans under- and over-constrained densities; every batch
    // must actually exercise at least one of the two verdict paths.
    EXPECT_GT(satCount + unsatCount, 0);
}

// 8 batches x 25 instances = 200 randomized instances per run, spanning
// 2-SAT and 3/4-SAT below, at, and above the satisfiability threshold.
INSTANTIATE_TEST_SUITE_P(
    DensitySweep, DifferentialTest,
    ::testing::Values(DiffCase{12, 51, 3, 9001},   // ~4.3 (critical)
                      DiffCase{12, 72, 3, 9002},   // 6.0 (mostly UNSAT)
                      DiffCase{16, 68, 3, 9003},   // ~4.3
                      DiffCase{20, 100, 3, 9004},  // 5.0
                      DiffCase{10, 20, 2, 9005},   // 2-SAT mixed
                      DiffCase{10, 35, 2, 9006},   // 2-SAT mostly UNSAT
                      DiffCase{25, 107, 3, 9007},  // ~4.3, larger
                      DiffCase{30, 135, 4, 9008}   // 4-SAT under-threshold
                      ));

TEST(DifferentialProofs, SurviveForcedClauseDbReduction) {
    // A tiny learnt-DB ceiling forces reduceLearnedDb to fire constantly,
    // so the proof is full of deletion steps (and re-derived units for
    // dropped root reasons). The checker must still certify it.
    SolverOptions options;
    options.learntSizeFactor = 0.01;
    options.learntSizeFloor = 2.0;

    const CnfFormula php = pigeonhole(7, 6);
    MemoryProofWriter proof;
    Solver solver;
    solver.options() = options;
    solver.setProofWriter(&proof);
    for (int v = 0; v < php.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : php.clauses) {
        solver.addClause(clause);
    }
    ASSERT_EQ(solver.solve(), SolveStatus::Unsat);
    ASSERT_GT(solver.stats().removedClauses, 0u)
        << "test misconfigured: no clause-DB reduction happened";
    EXPECT_GT(proof.deletions(), 0u);
    EXPECT_TRUE(proofCertifies(php, proof.proof()));
}

TEST(DifferentialProofs, RandomInstancesWithForcedReduction) {
    const unsigned seed = etcs::test::effectiveSeed(7777);
    SCOPED_TRACE(etcs::test::seedTrace(seed));
    std::mt19937 rng(seed);
    SolverOptions options;
    options.learntSizeFactor = 0.01;
    options.learntSizeFloor = 2.0;

    int certified = 0;
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const CnfFormula f = makeRandomFormula(rng, 20, 120, 3);  // density 6: UNSAT-heavy
        const PipelineResult result = solvePlain(f, &options);
        if (result.status != SolveStatus::Unsat) {
            continue;
        }
        EXPECT_TRUE(proofCertifies(f, result.proof));
        ++certified;
    }
    EXPECT_GT(certified, 0);
}

// ------------------------------------------------------- ETCS instances --

struct EncodedInstance {
    CnfFormula sat;    ///< verification on the finest layout (feasible)
    CnfFormula unsat;  ///< same, plus completion pinned before its bound
};

EncodedInstance encodeStudy(const studies::CaseStudy& study) {
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    EncodedInstance out;
    {
        cnf::CollectingBackend backend;
        core::Encoder encoder(backend, instance);
        const auto finest = core::VssLayout::finest(instance.graph());
        encoder.encode(&finest);
        out.sat = backend.formula();
    }
    {
        cnf::CollectingBackend backend;
        core::Encoder encoder(backend, instance);
        const auto finest = core::VssLayout::finest(instance.graph());
        encoder.encode(&finest);
        const int bound = encoder.completionLowerBound();
        EXPECT_GE(bound, 1);
        backend.addUnit(encoder.doneAllLiteral(std::max(bound - 1, 0)));
        out.unsat = backend.formula();
    }
    return out;
}

class EncoderDifferentialTest : public ::testing::TestWithParam<PaperLayout> {};

TEST_P(EncoderDifferentialTest, VerdictsMatchAndProofsCertify) {
    const studies::CaseStudy study = GetParam().make();
    SCOPED_TRACE(study.name);
    const EncodedInstance encoded = encodeStudy(study);

    // The timed schedule is feasible on the finest layout: SAT, and the
    // model must satisfy the exported formula.
    const PipelineResult sat = solvePlain(encoded.sat);
    ASSERT_EQ(sat.status, SolveStatus::Sat);
    EXPECT_TRUE(modelSatisfies(encoded.sat, sat.model));

    // Pinning completion below its lower bound is UNSAT — and the
    // refutation must be certified by the checker.
    const PipelineResult plain = solvePlain(encoded.unsat);
    ASSERT_EQ(plain.status, SolveStatus::Unsat);
    EXPECT_TRUE(proofCertifies(encoded.unsat, plain.proof));

    // With forced clause-DB reductions on top.
    SolverOptions options;
    options.learntSizeFactor = 0.01;
    options.learntSizeFloor = 2.0;
    const PipelineResult reduced = solvePlain(encoded.unsat, &options);
    ASSERT_EQ(reduced.status, SolveStatus::Unsat);
    EXPECT_TRUE(proofCertifies(encoded.unsat, reduced.proof));
}

INSTANTIATE_TEST_SUITE_P(PaperLayouts, EncoderDifferentialTest,
                         ::testing::ValuesIn(etcs::test::kPaperLayouts));

}  // namespace
}  // namespace etcs::sat
