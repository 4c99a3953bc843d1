/// \file unroll_test.cpp
/// Contracts of BMC-style incremental horizon unrolling (docs/UNROLLING.md):
///
///   * verdict and witness agreement with the monolithic encoding on every
///     shipped case study and the frozen generated corpus;
///   * objective agreement: generation finds the same minimal section count
///     and optimization the same minimal completion time as the monolithic
///     search;
///   * a prefix and its extensions emit each pass_through cell exactly once,
///     so the fully unrolled family equals the monolithic one;
///   * the optimize path reports a too-short horizon as its own verdict
///     (HorizonTooShort) without encoding or solving;
///   * proof soundness: UNSAT at the full horizon (assumption-free final
///     solve) carries a DRAT proof that re-certifies against the unrolled
///     formula, both in-process and through the shipped `dratcheck` tool;
///   * on Nordlandsbanen, the unrolled optimization formula is measurably
///     smaller than the monolithic one (the acceptance pin).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cnf/backend.hpp"
#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "obs/metrics.hpp"
#include "railway/io.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "studies/studies.hpp"

#ifndef ETCS_FIXTURE_DIR
#error "ETCS_FIXTURE_DIR must point at tests/fixtures/"
#endif
#ifndef ETCS_DRATCHECK_BIN
#error "ETCS_DRATCHECK_BIN must point at the dratcheck tool"
#endif

namespace etcs::core {
namespace {

/// The frozen generated corpus (tests/fixtures/gen/, regenerated and
/// byte-checked by gen_test); discretized at the generator's default
/// resolution.
const std::vector<std::string> kCorpus = {
    "corridor_s42_n3_t2_feasible",
    "corridor_s42_n3_t2_infeasible",
    "junction_s42_n3_t2_tight",
    "network_s42_n3_t2_feasible",
};
constexpr Resolution kCorpusResolution{Meters(500), Seconds(60)};

rail::Scenario loadCorpusScenario(const std::string& name, rail::Network& network) {
    const std::string base = std::string(ETCS_FIXTURE_DIR) + "/gen/" + name;
    std::ifstream railIn(base + ".rail");
    EXPECT_TRUE(railIn.good()) << "cannot open " << base << ".rail";
    network = rail::readNetwork(railIn);
    std::ifstream schedIn(base + ".sched");
    EXPECT_TRUE(schedIn.good()) << "cannot open " << base << ".sched";
    return rail::readScenario(schedIn, network);
}

/// The driver's start horizon (tasks.cpp): past the completion lower bound
/// and past every pinned stop, so pins always lie inside the first prefix.
int driverStartHorizon(const Instance& instance, int completionLowerBound) {
    int lo = completionLowerBound + 1;
    for (const DiscreteRun& run : instance.runs()) {
        for (const DiscreteStop& stop : run.stops) {
            if (stop.arrivalStep) {
                lo = std::max(lo, *stop.arrivalStep + stop.dwellSteps + 1);
            }
        }
    }
    return std::clamp(lo, 1, instance.horizonSteps());
}

TaskOptions monolithicOptions() {
    TaskOptions options;
    options.lintInstance = false;  // exercise the solver on every instance
    return options;
}

TaskOptions unrollOptions() {
    TaskOptions options = monolithicOptions();
    options.unroll = true;
    return options;
}

/// Verify `instance` on `layout` both ways; require identical verdicts,
/// validating witnesses, and an unrolled formula no larger than the
/// monolithic one (fully timed schedules have no open stops, so a prefix at
/// horizon k is exactly the horizon-k monolithic encoding).
struct AgreementResult {
    bool feasible = false;
    std::size_t monolithicClauses = 0;
    std::size_t unrolledClauses = 0;
};

AgreementResult expectVerifyAgreement(const Instance& instance, const VssLayout& layout) {
    const auto monolithic = verifySchedule(instance, layout, monolithicOptions());
    const auto unrolled = verifySchedule(instance, layout, unrollOptions());
    EXPECT_EQ(unrolled.feasible, monolithic.feasible)
        << "unrolled and monolithic encodings disagree";
    if (monolithic.feasible) {
        EXPECT_TRUE(monolithic.solution.has_value());
        EXPECT_TRUE(validateSolution(instance, *monolithic.solution).empty());
    }
    if (unrolled.feasible) {
        EXPECT_TRUE(unrolled.solution.has_value());
        EXPECT_TRUE(validateSolution(instance, *unrolled.solution).empty())
            << "unrolled witness fails the independent validator";
    }
    // A prefix at horizon k is exactly the horizon-k monolithic encoding;
    // the only addition is one lazily-built done-all selector per probe
    // (numRuns + 1 clauses each), which plain verification never needs.
    const std::size_t selectorSlack =
        static_cast<std::size_t>(unrolled.stats.unrollProbes) *
        (instance.numRuns() + 1);
    EXPECT_LE(unrolled.stats.numClauses, monolithic.stats.numClauses + selectorSlack)
        << "an unrolled prefix must not exceed the monolithic clause count";
    EXPECT_GE(unrolled.stats.unrollStartHorizon, 1);
    EXPECT_GE(unrolled.stats.unrollFinalHorizon, unrolled.stats.unrollStartHorizon);
    EXPECT_LE(unrolled.stats.unrollFinalHorizon, instance.horizonSteps());
    // One UNSAT probe per extension, one more where a probe answered below
    // the full horizon, and none at the full horizon (the task solves there).
    const int finalHorizon = unrolled.stats.unrollFinalHorizon;
    EXPECT_EQ(unrolled.stats.unrollProbes,
              finalHorizon - unrolled.stats.unrollStartHorizon +
                  (finalHorizon < instance.horizonSteps() ? 1 : 0));
    return AgreementResult{monolithic.feasible, monolithic.stats.numClauses,
                           unrolled.stats.numClauses};
}

TEST(Unroll, AgreesWithMonolithicOnShippedScenarios) {
    const std::vector<studies::CaseStudy> cases = {
        studies::runningExample(), studies::simpleLayout(), studies::complexLayout(),
        studies::nordlandsbanen()};
    for (const studies::CaseStudy& study : cases) {
        SCOPED_TRACE(study.name);
        const Instance instance(study.network, study.trains, study.timedSchedule,
                                study.resolution);
        // Pure TTD layout (the paper's verification task) and the finest
        // layout (every node a border) hit different exclusivity regimes.
        expectVerifyAgreement(instance, VssLayout(instance.graph()));
        expectVerifyAgreement(instance, VssLayout::finest(instance.graph()));
    }
}

TEST(Unroll, AgreesWithMonolithicOnFrozenCorpus) {
    for (const std::string& name : kCorpus) {
        SCOPED_TRACE(name);
        rail::Network network("pending");
        const rail::Scenario scenario = loadCorpusScenario(name, network);
        const Instance instance(network, scenario.trains, scenario.schedule,
                                kCorpusResolution);
        const auto result =
            expectVerifyAgreement(instance, VssLayout::finest(instance.graph()));
        if (name.find("_infeasible") != std::string::npos) {
            EXPECT_FALSE(result.feasible) << "provably infeasible corpus instance is SAT";
        }
        if (name.find("_feasible") != std::string::npos) {
            EXPECT_TRUE(result.feasible) << "feasible-by-construction instance is UNSAT";
        }
    }
}

TEST(Unroll, GenerationAndOptimizationAgree) {
    const studies::CaseStudy study = studies::runningExample();
    const Instance instance(study.network, study.trains, study.timedSchedule,
                            study.resolution);
    const auto monolithic = generateLayout(instance, monolithicOptions());
    const auto unrolled = generateLayout(instance, unrollOptions());
    ASSERT_EQ(unrolled.feasible, monolithic.feasible);
    ASSERT_TRUE(unrolled.feasible);
    // Both searches are sound and complete, so the minimized section counts
    // must coincide exactly.
    EXPECT_EQ(unrolled.sectionCount, monolithic.sectionCount);
    EXPECT_TRUE(validateSolution(instance, *unrolled.solution).empty());

    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const auto monolithicOpt = optimizeSchedule(open, monolithicOptions());
    const auto unrolledOpt = optimizeSchedule(open, unrollOptions());
    ASSERT_EQ(unrolledOpt.feasible, monolithicOpt.feasible);
    ASSERT_TRUE(monolithicOpt.feasible);
    EXPECT_EQ(unrolledOpt.verdict, OptimizeVerdict::Feasible);
    // "First SAT horizon" must equal the monolithic smallest-index search.
    EXPECT_EQ(unrolledOpt.completionSteps, monolithicOpt.completionSteps);
    EXPECT_EQ(unrolledOpt.sectionCount, monolithicOpt.sectionCount);
    EXPECT_TRUE(validateSolution(open, *unrolledOpt.solution).empty());
    EXPECT_EQ(unrolledOpt.stats.unrollFinalHorizon, unrolledOpt.completionSteps + 1);
}

TEST(Unroll, OptimizeOnFixedLayoutAgrees) {
    const studies::CaseStudy study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const VssLayout finest = VssLayout::finest(open.graph());
    const auto monolithic = optimizeScheduleOnLayout(open, finest, monolithicOptions());
    const auto unrolled = optimizeScheduleOnLayout(open, finest, unrollOptions());
    ASSERT_EQ(unrolled.feasible, monolithic.feasible);
    if (monolithic.feasible) {
        EXPECT_EQ(unrolled.completionSteps, monolithic.completionSteps);
    }
}

/// Satellite regression: a horizon shorter than any possible completion is
/// its own verdict — no encode, no solver call, and the lower bound that a
/// retry must beat is reported.
TEST(Unroll, OptimizeReportsHorizonTooShort) {
    const studies::CaseStudy study = studies::runningExample();
    rail::Schedule shortened = study.openSchedule;
    shortened.setHorizon(study.resolution.temporal +
                         study.resolution.temporal);  // two steps: nobody finishes
    const Instance instance(study.network, study.trains, shortened, study.resolution);
    const auto before = obs::Registry::global()
                            .counter("etcs.task.optimize.horizon_too_short")
                            .value();
    for (const bool unroll : {false, true}) {
        SCOPED_TRACE(unroll ? "unroll" : "monolithic");
        TaskOptions options = unroll ? unrollOptions() : monolithicOptions();
        const auto result = optimizeSchedule(instance, options);
        EXPECT_FALSE(result.feasible);
        EXPECT_EQ(result.verdict, OptimizeVerdict::HorizonTooShort);
        EXPECT_EQ(toString(result.verdict), "horizon_too_short");
        EXPECT_GT(result.completionLowerBound, instance.horizonSteps() - 1);
        EXPECT_EQ(result.stats.solveCalls, 0U);
        EXPECT_EQ(result.stats.numClauses, 0U) << "rejection must not encode";
    }
    EXPECT_EQ(obs::Registry::global()
                  .counter("etcs.task.optimize.horizon_too_short")
                  .value(),
              before + 2);
}

/// A feasible optimization must NOT be classified as HorizonTooShort.
TEST(Unroll, FeasibleOptimizationReportsFeasibleVerdict) {
    const studies::CaseStudy study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const auto result = optimizeSchedule(open, unrollOptions());
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.verdict, OptimizeVerdict::Feasible);
    EXPECT_EQ(toString(result.verdict), "feasible");
    EXPECT_LE(result.completionLowerBound, result.completionSteps);
}

/// UNSAT at the full horizon comes from an assumption-free solve of the
/// fully unrolled formula, so the accumulated DRAT proof certifies — replay
/// the driver's probe/extend loop against a proof-logging solver while a
/// twin encoder records the identical clause stream for the checker.
TEST(Unroll, UnsatProofRecertifies) {
    // The running example's timed schedule is infeasible on the pure TTD
    // layout (the paper's motivating verification failure).
    const studies::CaseStudy study = studies::runningExample();
    const Instance instance(study.network, study.trains, study.timedSchedule,
                            study.resolution);
    const VssLayout pure(instance.graph());
    const int fullHorizon = instance.horizonSteps();

    const auto solver = cnf::makeInternalBackend();
    sat::MemoryProofWriter proof;
    // The proof writer must attach before encoding so clause-normalization
    // steps are logged.
    ASSERT_TRUE(solver->setProofWriter(&proof));
    cnf::CollectingBackend collector;
    Encoder encoder(*solver, instance, {});
    Encoder twin(collector, instance, {});  // same deterministic clause stream

    int k = driverStartHorizon(instance, encoder.completionLowerBound());
    encoder.encodePrefix(&pure, k);
    twin.encodePrefix(&pure, k);
    cnf::SolveStatus status = cnf::SolveStatus::Unknown;
    for (;; ++k) {
        if (k == fullHorizon) {
            status = solver->solve();  // assumption-free: certifiable verdict
            break;
        }
        status = solver->solve({encoder.doneAllLiteral(k - 1)});
        (void)twin.doneAllLiteral(k - 1);  // keep the twin's selector stream aligned
        if (status != cnf::SolveStatus::Unsat) {
            break;
        }
        encoder.extendHorizon(k + 1);
        twin.extendHorizon(k + 1);
    }
    ASSERT_EQ(status, cnf::SolveStatus::Unsat);

    const sat::CnfFormula formula = collector.formula();
    ASSERT_GT(formula.clauses.size(), 0U);
    const auto check = sat::checkDrat(formula, proof.proof());
    EXPECT_TRUE(check.verified) << check.error;

    // Round-trip through the shipped checker binary.
    const std::string dir = ::testing::TempDir();
    const std::string cnfPath = dir + "unroll_unsat.cnf";
    const std::string proofPath = dir + "unroll_unsat.drat";
    ASSERT_TRUE(sat::writeDimacsFile(cnfPath, formula));
    {
        std::ofstream out(proofPath);
        ASSERT_TRUE(out.good());
        sat::TextDratWriter writer(out);
        sat::writeDrat(writer, proof.proof());
    }
    const std::string command =
        std::string(ETCS_DRATCHECK_BIN) + " " + cnfPath + " " + proofPath;
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
    std::remove(cnfPath.c_str());
    std::remove(proofPath.c_str());
}

/// The pass_through family's (variables, clauses).
std::pair<int, std::size_t> passThroughSize(const Encoder& encoder) {
    for (const FamilyCounts& counts : encoder.familyCounts()) {
        if (counts.family == "pass_through") {
            return {counts.variables, counts.clauses};
        }
    }
    return {0, 0};
}

/// pass_through clauses per (run, other run, step) block, read from the
/// provenance side-table.
std::map<std::tuple<int, int, int>, std::size_t> passThroughBlocks(const Encoder& encoder) {
    std::map<std::tuple<int, int, int>, std::size_t> blocks;
    const ProvenanceTable& table = *encoder.provenance();
    for (std::size_t span = 0; span < table.numSpans(); ++span) {
        const ClauseProvenance& record = table.record(span);
        if (record.family == "pass_through") {
            blocks[{record.run, record.run2, record.step}] += table.spanClauseCount(span);
        }
    }
    return blocks;
}

/// A horizon-k prefix emits the pass_through cells [departure, k-1) and an
/// extension to k' the cells [k-1, k'-1), so the driver's start prefix
/// extended step by step to the full horizon holds each cell exactly once:
/// the same family size and per-cell blocks as encode() (on the open
/// schedules 7,012 / 61,874 / 229,103 / 141,304 clauses).
TEST(Unroll, PrefixAndExtensionsEmitEachPassThroughCellOnce) {
    const std::vector<studies::CaseStudy> cases = {
        studies::runningExample(), studies::simpleLayout(), studies::complexLayout(),
        studies::nordlandsbanen()};
    EncoderOptions options;
    options.trackProvenance = true;
    for (const studies::CaseStudy& study : cases) {
        SCOPED_TRACE(study.name);
        const Instance open(study.network, study.trains, study.openSchedule,
                            study.resolution);
        cnf::CollectingBackend monolithicBackend;
        Encoder monolithic(monolithicBackend, open, options);
        monolithic.encode(nullptr);

        cnf::CollectingBackend unrolledBackend;
        Encoder unrolled(unrolledBackend, open, options);
        int k = driverStartHorizon(open, unrolled.completionLowerBound());
        ASSERT_LT(k, open.horizonSteps()) << "the pin needs at least one extension";
        unrolled.encodePrefix(nullptr, k);
        while (k < open.horizonSteps()) {
            unrolled.extendHorizon(++k);
        }

        EXPECT_GT(passThroughSize(monolithic).second, 0U);
        EXPECT_EQ(passThroughSize(unrolled), passThroughSize(monolithic));
        EXPECT_EQ(passThroughBlocks(unrolled), passThroughBlocks(monolithic));
    }
}

/// The acceptance pin: on Nordlandsbanen's open schedule, stopping the
/// encoding at the first SAT horizon leaves measurably fewer clauses than
/// the monolithic full-horizon formula.
TEST(Unroll, NordlandsbanenClauseReduction) {
    const studies::CaseStudy study = studies::nordlandsbanen();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    // Skip the lexicographic border pass on both sides: the pin measures
    // encoding size, and one completion-time search per side keeps the
    // largest shipped study affordable in the fast suite.
    TaskOptions monolithic = monolithicOptions();
    monolithic.lexicographicSections = false;
    TaskOptions unrolled = unrollOptions();
    unrolled.lexicographicSections = false;

    const auto baseline = optimizeSchedule(open, monolithic);
    const auto probed = optimizeSchedule(open, unrolled);
    ASSERT_EQ(probed.feasible, baseline.feasible);
    ASSERT_TRUE(baseline.feasible);
    EXPECT_EQ(probed.completionSteps, baseline.completionSteps);
    EXPECT_LT(probed.stats.unrollFinalHorizon, open.horizonSteps())
        << "the optimum must fall before the full horizon for the pin to bite";
    // The acceptance bar: at least 15% fewer clauses than monolithic (the
    // optimal timetable completes around 80% of the shipped horizon, so the
    // unrolled formula drops the last ~20% of the steps; measured ~20%).
    EXPECT_LE(probed.stats.numClauses * 100, baseline.stats.numClauses * 85)
        << "unrolled formula " << probed.stats.numClauses << " vs monolithic "
        << baseline.stats.numClauses;
}

TEST(Unroll, MirrorsCountersIntoTheMetricsRegistry) {
    auto& registry = obs::Registry::global();
    const auto probesBefore = registry.counter("etcs.unroll.probes").value();
    const studies::CaseStudy study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule,
                        study.resolution);
    const auto result = optimizeSchedule(open, unrollOptions());
    ASSERT_TRUE(result.feasible);
    EXPECT_GE(registry.counter("etcs.unroll.probes").value(),
              probesBefore + static_cast<std::uint64_t>(result.stats.unrollProbes));
    EXPECT_EQ(registry.gauge("etcs.unroll.final_horizon").value(),
              static_cast<double>(result.stats.unrollFinalHorizon));
    EXPECT_EQ(registry.gauge("etcs.unroll.start_horizon").value(),
              static_cast<double>(result.stats.unrollStartHorizon));
}

}  // namespace
}  // namespace etcs::core
