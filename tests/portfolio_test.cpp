// Differential and property harness for the parallel portfolio SAT backend.
//
// Four batteries (see docs/PARALLEL.md for the subsystem itself):
//  * differential — seeded random CNFs plus encoder-generated ETCS instances
//    are solved by the plain solver, portfolio instances at 1/2/4 threads
//    (racing and deterministic), and Z3 when compiled in; verdicts must
//    agree, SAT models must satisfy the formula, and failed-assumption
//    cores must be real cores;
//  * clause-sharing soundness — every clause a worker imports is recorded
//    and proven to be a consequence of the original formula by refuting
//    F ∧ ¬C with a proof-logging solver and certifying the refutation with
//    the independent DRAT checker;
//  * determinism regression — deterministic mode with a fixed (seed,
//    threads) pair must reproduce the verdict, winner, epoch count, work
//    counters, and model bit-for-bit across fresh runs;
//  * stress — repeated racing solves on a small UNSAT instance to shake
//    out cancellation/teardown races (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cnf/backend.hpp"
#include "cnf/collect.hpp"
#include "obs/metrics.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "opt/minimize.hpp"
#include "sat/drat_check.hpp"
#include "sat/portfolio.hpp"
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

struct PortfolioRun {
    SolveStatus status = SolveStatus::Unknown;
    int winner = -1;
    std::uint64_t epochs = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t imported = 0;
    std::vector<Value> model;  ///< populated on Sat, indexed by variable
};

PortfolioRun solvePortfolio(const CnfFormula& f, PortfolioOptions options,
                            std::span<const Literal> assumptions = {}) {
    PortfolioSolver portfolio(std::move(options));
    for (int v = 0; v < f.numVariables; ++v) {
        portfolio.addVariable();
    }
    for (const auto& clause : f.clauses) {
        portfolio.addClause(clause);
    }
    PortfolioRun run;
    run.status = portfolio.solve(assumptions);
    run.winner = portfolio.lastWinner();
    run.epochs = portfolio.stats().epochs;
    run.conflicts = portfolio.solverStats().conflicts;
    run.imported = portfolio.stats().importedClauses;
    if (run.status == SolveStatus::Sat) {
        run.model.resize(static_cast<std::size_t>(f.numVariables));
        for (Var v = 0; v < f.numVariables; ++v) {
            run.model[static_cast<std::size_t>(v)] = portfolio.modelValue(v);
        }
    }
    return run;
}

SolveStatus solveReference(const CnfFormula& f,
                           std::span<const Literal> assumptions = {}) {
    Solver solver;
    for (int v = 0; v < f.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : f.clauses) {
        solver.addClause(clause);
    }
    return solver.solve(assumptions);
}

#ifdef ETCS_HAVE_Z3
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

std::uint64_t modelHash(const std::vector<Value>& model) {
    std::uint64_t h = 14695981039346656037ULL;  // FNV-1a
    for (const Value v : model) {
        h ^= static_cast<std::uint64_t>(v) + 1;
        h *= 1099511628211ULL;
    }
    return h;
}

// ------------------------------------------------- differential battery --

/// (variables, clauses, clause size, seed) — one batch of the sweep.
using DiffCase = std::tuple<int, int, int, unsigned>;

class PortfolioDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(PortfolioDifferentialTest, AgreesWithReferenceAcrossThreadCounts) {
    const auto [numVariables, numClauses, clauseSize, baseSeed] = GetParam();
    const unsigned seed = etcs::test::effectiveSeed(baseSeed);
    SCOPED_TRACE(etcs::test::seedTrace(seed));
    std::mt19937 rng(seed);

    int satCount = 0;
    int unsatCount = 0;
    for (int round = 0; round < 25; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const CnfFormula f = makeRandomFormula(rng, numVariables, numClauses, clauseSize);
        const SolveStatus expected = solveReference(f);
        ASSERT_NE(expected, SolveStatus::Unknown);
#ifdef ETCS_HAVE_Z3
        ASSERT_EQ(expected, solveZ3(f));
#endif
        (expected == SolveStatus::Sat ? satCount : unsatCount) += 1;

        for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE("racing threads=" + std::to_string(threads));
            PortfolioOptions options;
            options.numThreads = threads;
            options.seed = seed;
            const PortfolioRun run = solvePortfolio(f, options);
            ASSERT_EQ(run.status, expected);
            ASSERT_GE(run.winner, 0);
            ASSERT_LT(run.winner, threads);
            if (expected == SolveStatus::Sat) {
                EXPECT_TRUE(modelSatisfies(f, run.model));
            }
        }
        {
            SCOPED_TRACE("deterministic threads=2");
            PortfolioOptions options;
            options.numThreads = 2;
            options.deterministic = true;
            options.epochConflicts = 256;
            options.seed = seed;
            const PortfolioRun run = solvePortfolio(f, options);
            ASSERT_EQ(run.status, expected);
            if (expected == SolveStatus::Sat) {
                EXPECT_TRUE(modelSatisfies(f, run.model));
            }
        }
    }
    // The sweep spans under- and over-constrained densities; every batch
    // must actually exercise at least one of the two verdict paths.
    EXPECT_GT(satCount + unsatCount, 0);
}

// 8 batches x 25 instances = 200 randomized instances per run, spanning
// 2-SAT and 3/4-SAT below, at, and above the satisfiability threshold.
INSTANTIATE_TEST_SUITE_P(
    DensitySweep, PortfolioDifferentialTest,
    ::testing::Values(DiffCase{12, 51, 3, 5001},   // ~4.3 (critical)
                      DiffCase{12, 72, 3, 5002},   // 6.0 (mostly UNSAT)
                      DiffCase{16, 68, 3, 5003},   // ~4.3
                      DiffCase{20, 100, 3, 5004},  // 5.0
                      DiffCase{10, 20, 2, 5005},   // 2-SAT mixed
                      DiffCase{10, 35, 2, 5006},   // 2-SAT mostly UNSAT
                      DiffCase{25, 107, 3, 5007},  // ~4.3, larger
                      DiffCase{30, 135, 4, 5008}   // 4-SAT under-threshold
                      ));

// --------------------------------------------- assumptions and the cores --

TEST(PortfolioAssumptions, IncrementalSolvesMatchAndCoresAreReal) {
    const unsigned seed = etcs::test::effectiveSeed(6100);
    SCOPED_TRACE(etcs::test::seedTrace(seed));
    std::mt19937 rng(seed);
    std::bernoulli_distribution signDist(0.5);

    int unsatUnderAssumptions = 0;
    for (int round = 0; round < 30; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const CnfFormula f = makeRandomFormula(rng, 16, 68, 3);

        PortfolioOptions options;
        options.numThreads = 4;
        options.seed = seed;
        PortfolioSolver portfolio(options);
        for (int v = 0; v < f.numVariables; ++v) {
            portfolio.addVariable();
        }
        for (const auto& clause : f.clauses) {
            portfolio.addClause(clause);
        }

        // Five incremental solves on the same portfolio: every worker must
        // replay the assumptions, and the winner's verdict must match a
        // fresh single-threaded solver given the same assumptions.
        for (int probe = 0; probe < 5; ++probe) {
            SCOPED_TRACE("probe " + std::to_string(probe));
            std::vector<int> vars(static_cast<std::size_t>(f.numVariables));
            for (std::size_t i = 0; i < vars.size(); ++i) {
                vars[i] = static_cast<int>(i);
            }
            std::shuffle(vars.begin(), vars.end(), rng);
            std::vector<Literal> assumptions;
            for (int i = 0; i < 4; ++i) {
                assumptions.push_back(Literal(vars[static_cast<std::size_t>(i)],
                                              signDist(rng)));
            }

            const SolveStatus expected = solveReference(f, assumptions);
            const SolveStatus got = portfolio.solve(assumptions);
            ASSERT_EQ(got, expected);

            if (got == SolveStatus::Sat) {
                // The winner's model must satisfy formula and assumptions.
                std::vector<Value> model(static_cast<std::size_t>(f.numVariables));
                for (Var v = 0; v < f.numVariables; ++v) {
                    model[static_cast<std::size_t>(v)] = portfolio.modelValue(v);
                }
                EXPECT_TRUE(modelSatisfies(f, model));
                for (const Literal l : assumptions) {
                    EXPECT_EQ(portfolio.modelValue(l), Value::True);
                }
                continue;
            }

            ++unsatUnderAssumptions;
            const std::vector<Literal>& core = portfolio.conflictCore();
            // The core is a subset of the assumptions...
            for (const Literal l : core) {
                EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                          assumptions.end())
                    << "core literal is not an assumption";
            }
            // ...that is itself jointly unsatisfiable with the formula.
            EXPECT_EQ(solveReference(f, core), SolveStatus::Unsat);
        }
    }
    EXPECT_GT(unsatUnderAssumptions, 0)
        << "sweep never hit the failed-assumption path";
}

// --------------------------------------- clause-sharing soundness battery --

/// Thread-safe recorder hooked into PortfolioOptions::onImportedClause.
struct ImportRecorder {
    std::mutex mutex;
    std::vector<std::vector<Literal>> clauses;

    void operator()(int /*worker*/, std::span<const Literal> clause) {
        const std::lock_guard<std::mutex> lock(mutex);
        clauses.emplace_back(clause.begin(), clause.end());
    }
};

/// Prove that `clause` is a consequence of `f`: F ∧ ¬C must be refutable,
/// and the refutation must be certified by the independent DRAT checker.
::testing::AssertionResult clauseIsImplied(const CnfFormula& f,
                                           const std::vector<Literal>& clause) {
    CnfFormula augmented = f;
    MemoryProofWriter proof;
    Solver solver;
    solver.setProofWriter(&proof);
    for (int v = 0; v < f.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& c : f.clauses) {
        solver.addClause(c);
    }
    for (const Literal l : clause) {
        augmented.clauses.push_back({~l});
        solver.addClause({~l});
    }
    if (solver.solve() != SolveStatus::Unsat) {
        return ::testing::AssertionFailure() << "F ∧ ¬C is satisfiable";
    }
    return proofCertifies(augmented, proof.takeProof());
}

void checkSharingSoundness(const CnfFormula& f, const PortfolioOptions& base,
                           SolveStatus expected) {
    PortfolioOptions options = base;
    auto recorder = std::make_shared<ImportRecorder>();
    options.onImportedClause = [recorder](int worker, std::span<const Literal> c) {
        (*recorder)(worker, c);
    };
    const PortfolioRun run = solvePortfolio(f, options);
    ASSERT_EQ(run.status, expected);
    ASSERT_FALSE(recorder->clauses.empty())
        << "no clauses were shared; the instance is too easy to exercise sharing";

    // Deduplicate (the same clause reaches several inboxes) and verify a
    // bounded sample — implication checks against the DRAT checker are the
    // expensive part, not the collection.
    std::set<std::vector<Literal>> distinct;
    for (auto clause : recorder->clauses) {
        ASSERT_FALSE(clause.empty()) << "an empty clause was shared";
        std::sort(clause.begin(), clause.end());
        distinct.insert(std::move(clause));
    }
    constexpr std::size_t kSample = 60;
    std::size_t checked = 0;
    for (const auto& clause : distinct) {
        if (checked++ == kSample) {
            break;
        }
        EXPECT_TRUE(clauseIsImplied(f, clause));
    }
}

TEST(PortfolioClauseSharing, RacingImportsAreConsequencesOfTheFormula) {
    PortfolioOptions options;
    options.numThreads = 4;
    options.seed = etcs::test::effectiveSeed(6200);
    checkSharingSoundness(pigeonhole(8, 7), options, SolveStatus::Unsat);
}

TEST(PortfolioClauseSharing, DeterministicExchangeIsSoundToo) {
    PortfolioOptions options;
    options.numThreads = 4;
    options.deterministic = true;
    options.epochConflicts = 512;  // force several exchange barriers
    options.seed = etcs::test::effectiveSeed(6201);
    checkSharingSoundness(pigeonhole(8, 7), options, SolveStatus::Unsat);
}

TEST(PortfolioClauseSharing, SharingActuallyHappensOnHardInstances) {
    PortfolioOptions options;
    options.numThreads = 4;
    options.seed = etcs::test::effectiveSeed(6202);
    const PortfolioRun run = solvePortfolio(pigeonhole(8, 7), options);
    ASSERT_EQ(run.status, SolveStatus::Unsat);
    EXPECT_GT(run.imported, 0u);
}

// ------------------------------------------------ determinism regression --

TEST(PortfolioDeterminism, UnsatRunsAreReproducible) {
    const CnfFormula php = pigeonhole(8, 7);
    PortfolioOptions options;
    options.numThreads = 4;
    options.deterministic = true;
    options.epochConflicts = 512;
    options.seed = 42;

    const PortfolioRun first = solvePortfolio(php, options);
    const PortfolioRun second = solvePortfolio(php, options);
    ASSERT_EQ(first.status, SolveStatus::Unsat);
    EXPECT_EQ(second.status, first.status);
    EXPECT_EQ(second.winner, first.winner);
    EXPECT_EQ(second.epochs, first.epochs);
    EXPECT_EQ(second.conflicts, first.conflicts);
    EXPECT_EQ(second.imported, first.imported);
    EXPECT_GT(first.epochs, 1u) << "instance finished in one epoch; the "
                                    "exchange path was not exercised";
}

TEST(PortfolioDeterminism, SatModelIsReproducible) {
    const unsigned seed = etcs::test::effectiveSeed(6300);
    SCOPED_TRACE(etcs::test::seedTrace(seed));
    std::mt19937 rng(seed);
    // Density 2.5 — nearly always SAT; skip the rare UNSAT draws.
    int compared = 0;
    for (int round = 0; round < 8 && compared < 3; ++round) {
        const CnfFormula f = makeRandomFormula(rng, 24, 60, 3);
        PortfolioOptions options;
        options.numThreads = 4;
        options.deterministic = true;
        options.epochConflicts = 64;
        options.seed = 7;

        const PortfolioRun first = solvePortfolio(f, options);
        const PortfolioRun second = solvePortfolio(f, options);
        ASSERT_EQ(second.status, first.status);
        if (first.status != SolveStatus::Sat) {
            continue;
        }
        ++compared;
        EXPECT_EQ(second.winner, first.winner);
        EXPECT_EQ(second.conflicts, first.conflicts);
        EXPECT_EQ(modelHash(second.model), modelHash(first.model));
        EXPECT_TRUE(modelSatisfies(f, first.model));
    }
    EXPECT_GT(compared, 0) << "sweep never produced a SAT instance";
}

// ------------------------------------------------------ winner-only DRAT --

TEST(PortfolioProofs, WinnerProofCertifiesAndSharingIsDisabled) {
    const CnfFormula php = pigeonhole(7, 6);
    for (const bool deterministic : {false, true}) {
        SCOPED_TRACE(deterministic ? "deterministic" : "racing");
        PortfolioOptions options;
        options.numThreads = 4;
        options.deterministic = deterministic;
        options.epochConflicts = 512;
        PortfolioSolver portfolio(options);
        MemoryProofWriter proof;
        portfolio.setProofWriter(&proof);
        for (int v = 0; v < php.numVariables; ++v) {
            portfolio.addVariable();
        }
        for (const auto& clause : php.clauses) {
            portfolio.addClause(clause);
        }
        ASSERT_EQ(portfolio.solve(), SolveStatus::Unsat);
        ASSERT_GE(portfolio.lastWinner(), 0);
        // Proof capture forces a share-nothing portfolio: a worker's DRAT
        // derivation must stay self-contained.
        EXPECT_EQ(portfolio.stats().exportedClauses, 0u);
        EXPECT_EQ(portfolio.stats().importedClauses, 0u);
        EXPECT_TRUE(proofCertifies(php, proof.takeProof()));
    }
}

// ------------------------------------------------------- stress (TSan) --

TEST(PortfolioStress, RepeatedRacingSolvesStayCorrect) {
    const CnfFormula php = pigeonhole(6, 5);
    for (int iteration = 0; iteration < 50; ++iteration) {
        SCOPED_TRACE("iteration " + std::to_string(iteration));
        PortfolioOptions options;
        options.numThreads = 4;
        options.seed = static_cast<std::uint64_t>(iteration) + 1;
        const PortfolioRun run = solvePortfolio(php, options);
        ASSERT_EQ(run.status, SolveStatus::Unsat);
        ASSERT_GE(run.winner, 0);
    }
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

class PortfolioEncoderTest : public ::testing::TestWithParam<PaperLayout> {};

TEST_P(PortfolioEncoderTest, EtcsInstancesMatchAcrossModes) {
    const studies::CaseStudy study = GetParam().make();
    SCOPED_TRACE(study.name);
    const EncodedInstance encoded = encodeStudy(study);

    for (const int threads : {2, 4}) {
        SCOPED_TRACE("racing threads=" + std::to_string(threads));
        PortfolioOptions options;
        options.numThreads = threads;
        const PortfolioRun sat = solvePortfolio(encoded.sat, options);
        ASSERT_EQ(sat.status, SolveStatus::Sat);
        EXPECT_TRUE(modelSatisfies(encoded.sat, sat.model));
        const PortfolioRun unsat = solvePortfolio(encoded.unsat, options);
        ASSERT_EQ(unsat.status, SolveStatus::Unsat);
    }
    {
        SCOPED_TRACE("deterministic");
        PortfolioOptions options;
        options.numThreads = 4;
        options.deterministic = true;
        options.epochConflicts = 1024;
        const PortfolioRun sat = solvePortfolio(encoded.sat, options);
        ASSERT_EQ(sat.status, SolveStatus::Sat);
        EXPECT_TRUE(modelSatisfies(encoded.sat, sat.model));
        const PortfolioRun unsat = solvePortfolio(encoded.unsat, options);
        ASSERT_EQ(unsat.status, SolveStatus::Unsat);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperLayouts, PortfolioEncoderTest,
                         ::testing::ValuesIn(etcs::test::kPaperLayouts));

// --------------------------------------------------- backend/task wiring --

TEST(PortfolioBackend, TasksProduceTheSameLayoutQuality) {
    const studies::CaseStudy study = studies::runningExample();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);

    const auto baseline = core::generateLayout(instance);
    core::TaskOptions parallel;
    parallel.threads = 2;
    const auto viaPortfolio = core::generateLayout(instance, parallel);

    ASSERT_EQ(viaPortfolio.feasible, baseline.feasible);
    ASSERT_TRUE(viaPortfolio.feasible);
    // Both backends minimize sum border_v; the optimum is backend-agnostic.
    EXPECT_EQ(viaPortfolio.sectionCount, baseline.sectionCount);
}

// Regression: the portfolio used to expose an always-empty failed-assumption
// core (the winner's solver state is reset by the next solve), starving the
// provenance/explanation pipeline. The winner's core is now snapshotted at
// the end of each Unsat solve and must survive until the next call.
TEST(PortfolioAssumptions, WinnerCoreIsSnapshottedAndNonEmpty) {
    // (x0 | x1) with assumptions {~x0, ~x1}: Unsat, and every failed-
    // assumption core must name at least one of the two assumptions.
    CnfFormula f;
    f.numVariables = 3;
    f.clauses.push_back({Literal::positive(0), Literal::positive(1)});

    PortfolioOptions options;
    options.numThreads = 2;
    options.seed = 7;
    PortfolioSolver portfolio(options);
    for (int v = 0; v < f.numVariables; ++v) {
        portfolio.addVariable();
    }
    for (const auto& clause : f.clauses) {
        portfolio.addClause(clause);
    }

    const std::vector<Literal> assumptions{Literal::negative(0), Literal::negative(1),
                                           Literal::negative(2)};
    ASSERT_EQ(portfolio.solve(assumptions), SolveStatus::Unsat);
    const std::vector<Literal> core = portfolio.conflictCore();
    ASSERT_FALSE(core.empty());
    for (const Literal l : core) {
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                  assumptions.end())
            << "core literal is not an assumption";
    }
    // The core is a real core: the formula is Unsat under the core alone.
    EXPECT_EQ(solveReference(f, core), SolveStatus::Unsat);

    // A subsequent unconstrained solve is Sat and clears the snapshot.
    ASSERT_EQ(portfolio.solve(), SolveStatus::Sat);
    EXPECT_TRUE(portfolio.conflictCore().empty());
}

TEST(PortfolioBackend, ExposesTheCoreAndRecordsItsSize) {
    const auto backend = cnf::makePortfolioBackend(2);
    for (int v = 0; v < 2; ++v) {
        backend->addVariable();
    }
    backend->addClause({Literal::positive(0), Literal::positive(1)});

    auto& registry = etcs::obs::Registry::global();
    registry.gauge("etcs.sat.portfolio.core_size").set(-1.0);

    const std::vector<Literal> assumptions{Literal::negative(0), Literal::negative(1)};
    ASSERT_EQ(backend->solve(assumptions), SolveStatus::Unsat);
    const std::vector<Literal> core = backend->conflictCore();
    ASSERT_FALSE(core.empty());
    for (const Literal l : core) {
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                  assumptions.end());
    }
    EXPECT_EQ(registry.gauge("etcs.sat.portfolio.core_size").value(),
              static_cast<double>(core.size()));
}

/// Regression for the SAT-side portfolio slowdown: an instance the probe's
/// solo conflict budget decides must finish *gated* — worker 0 only, no
/// thread spawns, no sharing — while budget-exhausting instances fall
/// through to the full portfolio with the verdict unchanged.
TEST(PortfolioSoloProbe, EasyInstancesFinishGatedOnWorkerZero) {
    PortfolioOptions options;
    options.numThreads = 4;
    options.soloProbeConflicts = 1024;
    std::mutex mutex;
    std::vector<int> started;
    options.onWorkerStart = [&](int worker) {
        const std::lock_guard<std::mutex> lock(mutex);
        started.push_back(worker);
    };
    PortfolioSolver portfolio(options);
    for (int v = 0; v < 3; ++v) {
        portfolio.addVariable();
    }
    portfolio.addClause({Literal::positive(0), Literal::positive(1)});
    portfolio.addClause({Literal::negative(0), Literal::positive(2)});
    ASSERT_EQ(portfolio.solve(), SolveStatus::Sat);
    EXPECT_EQ(portfolio.stats().gatedSolves, 1U);
    EXPECT_EQ(portfolio.lastWinner(), 0);
    EXPECT_EQ(started, std::vector<int>{0}) << "a gated solve must not spawn workers";
}

TEST(PortfolioSoloProbe, GatedUnsatUnderAssumptionsStillExposesTheCore) {
    PortfolioOptions options;
    options.numThreads = 2;
    options.soloProbeConflicts = 1024;
    PortfolioSolver portfolio(options);
    portfolio.addVariable();
    portfolio.addClause({Literal::positive(0)});
    const std::vector<Literal> assumptions{Literal::negative(0)};
    ASSERT_EQ(portfolio.solve(assumptions), SolveStatus::Unsat);
    EXPECT_EQ(portfolio.stats().gatedSolves, 1U);
    const auto& core = portfolio.conflictCore();
    ASSERT_FALSE(core.empty());
    EXPECT_EQ(core.front(), Literal::negative(0));
}

TEST(PortfolioSoloProbe, HardInstancesFallThroughToTheFullPortfolio) {
    PortfolioOptions options;
    options.numThreads = 2;
    options.soloProbeConflicts = 1;  // php needs far more than one conflict
    std::mutex mutex;
    std::set<int> started;
    options.onWorkerStart = [&](int worker) {
        const std::lock_guard<std::mutex> lock(mutex);
        started.insert(worker);
    };
    PortfolioSolver portfolio(options);
    const CnfFormula php = pigeonhole(6, 5);
    for (int v = 0; v < php.numVariables; ++v) {
        portfolio.addVariable();
    }
    for (const auto& clause : php.clauses) {
        portfolio.addClause(clause);
    }
    ASSERT_EQ(portfolio.solve(), SolveStatus::Unsat);
    EXPECT_EQ(portfolio.stats().gatedSolves, 0U)
        << "an exhausted probe budget must not count as gated";
    EXPECT_EQ(started.size(), 2U) << "the full portfolio must have run";
}

TEST(PortfolioSoloProbe, BackendEnablesTheGateByDefaultAndRecordsTheMetric) {
    auto& registry = etcs::obs::Registry::global();
    const auto before = registry.counter("etcs.sat.portfolio.gated").value();
    const auto backend = cnf::makePortfolioBackend(2);
    backend->addVariable();
    backend->addClause({Literal::positive(0)});
    ASSERT_EQ(backend->solve(std::span<const Literal>{}), SolveStatus::Sat);
    EXPECT_TRUE(backend->modelValue(Literal::positive(0)));
    EXPECT_EQ(registry.counter("etcs.sat.portfolio.gated").value(), before + 1);
}

/// SatBackend::modelValue reads the most recent satisfying model, so a later
/// solve that ends Unknown — here cancelled through the progress hook —
/// leaves that model readable instead of throwing.
TEST(PortfolioBackend, ModelSurvivesACancelledSolve) {
    const auto backend = cnf::makePortfolioBackend(2);
    const CnfFormula php = pigeonhole(11, 10);
    for (int v = 0; v < php.numVariables; ++v) {
        backend->addVariable();
    }
    backend->addClause({Literal::positive(0)});
    backend->addClause({Literal::negative(1)});
    ASSERT_EQ(backend->solve(std::span<const Literal>{}), SolveStatus::Sat);
    std::vector<bool> model;
    for (Var v = 0; v < php.numVariables; ++v) {
        model.push_back(backend->modelValue(Literal::positive(v)));
    }

    for (const auto& clause : php.clauses) {
        backend->addClause(clause);
    }
    ASSERT_TRUE(backend->setProgressCallback([](const SolverProgress&) { return false; }, 1));
    ASSERT_EQ(backend->solve(std::span<const Literal>{}), SolveStatus::Unknown);
    for (Var v = 0; v < php.numVariables; ++v) {
        EXPECT_EQ(backend->modelValue(Literal::positive(v)), model[static_cast<std::size_t>(v)])
            << "variable " << v;
    }
    EXPECT_TRUE(backend->modelValue(Literal::positive(0)));
    EXPECT_FALSE(backend->modelValue(Literal::positive(1)));
}

/// A border-style minimization that ends on an UNSAT probe (LinearDown's
/// refuted bound) keeps the last SAT probe's model instead of re-solving.
/// With the solo-probe gate off the two workers race every probe, so the
/// UNSAT probe's winner need not be the worker that found that model.
TEST(PortfolioBackend, MinimizationEndingUnsatLeavesTheOptimalModel) {
    const unsigned seed = etcs::test::effectiveSeed(6300);
    SCOPED_TRACE(etcs::test::seedTrace(seed));
    std::mt19937 rng(seed);
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        PortfolioOptions options;
        options.numThreads = 2;
        options.soloProbeConflicts = 0;
        const auto backend = cnf::makePortfolioBackend(options);
        // Six disjoint demands over pairs of 12 soft literals, shuffled:
        // optimum 6.
        std::vector<Literal> soft;
        for (int v = 0; v < 12; ++v) {
            soft.push_back(Literal::positive(backend->addVariable()));
        }
        std::shuffle(soft.begin(), soft.end(), rng);
        for (std::size_t i = 0; i < soft.size(); i += 2) {
            backend->addClause({soft[i], soft[i + 1]});
        }
        const auto result =
            opt::minimizeTrueLiterals(*backend, soft, opt::SearchStrategy::LinearDown);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.optimum, 6);
        int count = 0;
        for (const Literal l : soft) {
            count += backend->modelValue(l) ? 1 : 0;
        }
        EXPECT_EQ(count, 6);
    }
}

TEST(PortfolioBackend, ReportsItsNameAndThreadCount) {
    const auto backend = cnf::makePortfolioBackend(3);
    EXPECT_EQ(backend->name(), "portfolio-cdcl(3)");
    const auto deterministic = cnf::makePortfolioBackend(2, /*deterministic=*/true);
    EXPECT_EQ(deterministic->name(), "portfolio-cdcl(2,deterministic)");
}

}  // namespace
}  // namespace etcs::sat
