/// \file reach_test.cpp
/// The reachability fixpoint of lint/reach.hpp and its two consumers: the
/// R-code lint pass and the encoder's cell pruning (core/pruning.hpp).
/// Soundness is exercised from three sides:
///   * analytic — widening the horizon never shrinks a window, pinned
///     obligations of feasible schedules lie inside their windows;
///   * differential — pruned and unpruned encodings agree on the verdict,
///     including on instances the analysis itself proves infeasible (the
///     dangerous corner: a skipped pin clause must not turn UNSAT into SAT);
///   * oracle — every cell a completed greedy simulation occupies is
///     admitted by the analysis (simulator-reachable subset of windows).
/// Both consumers take their runs from rail::discretize; the gate and the
/// linter are checked to agree cell by cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/pruning.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "gen/generator.hpp"
#include "gen/oracle.hpp"
#include "lint/reach.hpp"
#include "railway/io.hpp"
#include "railway/segment_graph.hpp"
#include "studies/studies.hpp"

#ifndef ETCS_FIXTURE_DIR
#error "ETCS_FIXTURE_DIR must point at tests/fixtures/"
#endif

namespace etcs::lint {
namespace {

using rail::DiscreteRun;
using rail::Network;
using rail::Schedule;
using rail::SegmentGraph;
using rail::TimedStop;
using rail::TrainRun;
using rail::TrainSet;

constexpr Resolution kRes{Meters(500), Seconds(30)};

/// A single 6-segment, 3 km line in one TTD with stations at both ends and
/// one in the middle (segment ids 0 and 5 for the ends, 3 for the middle).
struct LineWorld {
    Network network{"reachline"};
    TrainSet trains;
    TrainId train;

    LineWorld() {
        const auto a = network.addNode("A");
        const auto b = network.addNode("B");
        const auto t = network.addTrack("t", a, b, Meters(3000));
        network.addTtd("T", {t});
        network.addStation("StA", t, Meters(0));
        network.addStation("StM", t, Meters(1500));
        network.addStation("StB", t, Meters(3000));
        // 120 km/h at r = (500 m, 30 s) -> 2 segments/step; 100 m -> 1 segment.
        train = trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    }

    [[nodiscard]] Schedule schedule(const char* from, const char* to, int depSteps,
                                    std::optional<int> arrSteps,
                                    Seconds dwell = Seconds(0)) const {
        TrainRun r;
        r.train = train;
        r.origin = *network.findStation(from);
        r.departure = Seconds(depSteps * 30);
        TimedStop stop{*network.findStation(to),
                       arrSteps ? std::optional(Seconds(*arrSteps * 30)) : std::nullopt};
        stop.dwell = dwell;
        r.stops.push_back(stop);
        Schedule s;
        s.addRun(r);
        return s;
    }
};

TEST(Reach, StepWindowBasics) {
    const StepWindow empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.width(), 0);
    EXPECT_FALSE(empty.contains(0));

    const StepWindow w{2, 5};
    EXPECT_FALSE(w.empty());
    EXPECT_EQ(w.width(), 4);
    EXPECT_TRUE(w.contains(2));
    EXPECT_TRUE(w.contains(5));
    EXPECT_FALSE(w.contains(1));
    EXPECT_FALSE(w.contains(6));
}

/// Hand-built runs covering the three shapes the analysis distinguishes:
/// fully pinned (prompt cutoff), open destination, and mixed pin + open.
std::vector<DiscreteRun> lineRuns(const SegmentGraph& graph, const LineWorld& w) {
    const SegmentId origin = graph.segmentOfStation(*w.network.findStation("StA"));
    const SegmentId middle = graph.segmentOfStation(*w.network.findStation("StM"));
    const SegmentId dest = graph.segmentOfStation(*w.network.findStation("StB"));
    std::vector<DiscreteRun> runs;
    {
        DiscreteRun pinned;
        pinned.originSegment = origin;
        pinned.speedSegments = 2;
        pinned.stops.push_back(
            {.station = {}, .segment = dest, .arrivalStep = 4, .dwellSteps = 2});
        runs.push_back(pinned);
    }
    {
        DiscreteRun open;
        open.originSegment = origin;
        open.speedSegments = 2;
        open.stops.push_back(
            {.station = {}, .segment = dest, .arrivalStep = std::nullopt, .dwellSteps = 1});
        runs.push_back(open);
    }
    {
        DiscreteRun mixed;
        mixed.originSegment = origin;
        mixed.speedSegments = 2;
        mixed.stops.push_back(
            {.station = {}, .segment = middle, .arrivalStep = 2, .dwellSteps = 1});
        mixed.stops.push_back(
            {.station = {}, .segment = dest, .arrivalStep = std::nullopt, .dwellSteps = 2});
        runs.push_back(mixed);
    }
    return runs;
}

TEST(Reach, WideningTheHorizonNeverShrinksAWindow) {
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    const ReachAnalysis narrow(graph, lineRuns(graph, w), 8);
    const ReachAnalysis wide(graph, lineRuns(graph, w), 13);
    ASSERT_EQ(narrow.numRuns(), wide.numRuns());
    for (std::size_t run = 0; run < narrow.numRuns(); ++run) {
        for (std::size_t s = 0; s < graph.numSegments(); ++s) {
            const SegmentId seg(s);
            for (int t = 0; t < narrow.horizonSteps(); ++t) {
                if (narrow.possible(run, seg, t)) {
                    EXPECT_TRUE(wide.possible(run, seg, t))
                        << "run " << run << " segment " << s << " step " << t
                        << " vanished when the horizon grew";
                }
            }
        }
    }
}

TEST(Reach, PromptCutoffTruncatesFullyPinnedRuns) {
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    const ReachAnalysis analysis(graph, lineRuns(graph, w), 12);

    // Run 0 is fully pinned with its destination visit ending at step 5.
    EXPECT_TRUE(analysis.promptCutoff(0));
    EXPECT_EQ(analysis.runCutoffStep(0), 5);
    for (std::size_t s = 0; s < graph.numSegments(); ++s) {
        for (int t = 6; t < analysis.horizonSteps(); ++t) {
            EXPECT_FALSE(analysis.possible(0, SegmentId(s), t))
                << "cell past the prompt cutoff at segment " << s << " step " << t;
        }
    }

    // Run 1 has an open destination: no truncation applies.
    EXPECT_FALSE(analysis.promptCutoff(1));
    EXPECT_EQ(analysis.runCutoffStep(1), analysis.horizonSteps() - 1);
    EXPECT_FALSE(analysis.provablyInfeasible());
}

TEST(Reach, PinnedRaysCarveNonConvexExclusions) {
    // A 1 seg/step train pinned to arrive at the far end exactly when the
    // shortest path allows leaves a single admissible step on the origin
    // segment — the cone alone would admit the whole prefix [0, 5].
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    const SegmentId origin = graph.segmentOfStation(*w.network.findStation("StA"));
    const SegmentId dest = graph.segmentOfStation(*w.network.findStation("StB"));
    DiscreteRun slow;
    slow.originSegment = origin;
    slow.speedSegments = 1;
    slow.stops.push_back({.station = {}, .segment = dest, .arrivalStep = 5, .dwellSteps = 1});
    const ReachAnalysis analysis(graph, std::vector{slow}, 10);

    EXPECT_FALSE(analysis.provablyInfeasible());
    const StepWindow atOrigin = analysis.window(0, origin);
    EXPECT_EQ(atOrigin.earliest, 0);
    EXPECT_EQ(atOrigin.latest, 0);
    for (int t = 1; t <= 5; ++t) {
        EXPECT_FALSE(analysis.possible(0, origin, t)) << "step " << t;
    }
    EXPECT_TRUE(analysis.possible(0, dest, 5));
}

TEST(Reach, FeasiblePinsLieInsideTheirWindows) {
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    const auto reach = analyzeSchedule(graph, w.trains, w.schedule("StA", "StB", 0, 4));
    ASSERT_TRUE(reach.analysis.has_value());
    const ReachAnalysis& analysis = *reach.analysis;
    ASSERT_EQ(analysis.numRuns(), 1u);
    EXPECT_FALSE(analysis.provablyInfeasible());

    const SegmentId origin = graph.segmentOfStation(*w.network.findStation("StA"));
    const SegmentId dest = graph.segmentOfStation(*w.network.findStation("StB"));
    EXPECT_TRUE(analysis.possible(0, origin, 0));
    EXPECT_TRUE(analysis.window(0, dest).contains(4));
    EXPECT_GT(analysis.possibleCells(), 0u);
    EXPECT_LT(analysis.possibleCells(), analysis.totalCells());
}

TEST(Reach, UnreachableDeadlineIsR001) {
    // StA -> StB needs 3 steps at 2 seg/step; pinning step 2 is refutable.
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    const Schedule schedule = w.schedule("StA", "StB", 0, 2);
    const auto reach = analyzeSchedule(graph, w.trains, schedule);
    ASSERT_TRUE(reach.analysis.has_value());
    EXPECT_TRUE(reach.analysis->provablyInfeasible());

    LintReport report;
    lintReachability(graph, w.trains, schedule, report);
    EXPECT_TRUE(report.has("R001"));
    EXPECT_TRUE(report.hasErrors());
}

TEST(Reach, EmptyOpenStopWindowIsR001) {
    // An open destination with a horizon shorter than the travel time has an
    // empty window. The narrowing propagates the contradiction back to the
    // departure cell, so the reported violation is the origin one.
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    Schedule schedule = w.schedule("StA", "StB", 0, std::nullopt);
    schedule.setHorizon(Seconds(60));  // H = 3 steps < 3-step travel + visit
    const auto reach = analyzeSchedule(graph, w.trains, schedule);
    ASSERT_TRUE(reach.analysis.has_value());
    ASSERT_TRUE(reach.analysis->provablyInfeasible());
    EXPECT_EQ(reach.analysis->violations().front().kind,
              ReachViolation::Kind::OriginUnreachable);
    EXPECT_TRUE(reach.analysis->window(0, graph.segmentOfStation(
                                              *w.network.findStation("StB")))
                    .empty());

    LintReport report;
    lintReachability(graph, w.trains, schedule, report);
    EXPECT_TRUE(report.has("R001"));
}

TEST(Reach, UnplaceableDwellIsR002) {
    // A 1600 m train (4 segments) reaches StM with zero travel lower bound,
    // so its departure cell stays admissible — but the 10-minute dwell needs
    // 20 consecutive steps and the horizon offers only 10: a dead stop.
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    const TrainId longTrain =
        w.trains.addTrain("L", Speed::fromKmPerHour(120), Meters(1600));
    TrainRun r;
    r.train = longTrain;
    r.origin = *w.network.findStation("StA");
    r.departure = Seconds(0);
    TimedStop stop{*w.network.findStation("StM"), std::nullopt};
    stop.dwell = Seconds(600);
    r.stops.push_back(stop);
    Schedule schedule;
    schedule.addRun(r);
    schedule.setHorizon(Seconds(9 * 30));
    const auto reach = analyzeSchedule(graph, w.trains, schedule);
    ASSERT_TRUE(reach.analysis.has_value());
    ASSERT_TRUE(reach.analysis->provablyInfeasible());
    EXPECT_EQ(reach.analysis->violations().front().kind,
              ReachViolation::Kind::DwellUnplaceable);

    LintReport report;
    lintReachability(graph, w.trains, schedule, report);
    EXPECT_TRUE(report.has("R002"));
    EXPECT_FALSE(report.has("R001"));
}

TEST(Reach, VacuousDeadlineIsR003) {
    // With the default horizon (the latest pinned arrival), the destination
    // deadline can never bind: the horizon itself forces the arrival.
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    LintReport tight;
    lintReachability(graph, w.trains, w.schedule("StA", "StB", 0, 4), tight);
    EXPECT_TRUE(tight.has("R003"));
    EXPECT_FALSE(tight.hasErrors()) << "R003 is informational";

    // With slack after the deadline the pin genuinely constrains the run.
    Schedule relaxed = w.schedule("StA", "StB", 0, 4);
    relaxed.setHorizon(Seconds(10 * 30));
    LintReport slack;
    lintReachability(graph, w.trains, relaxed, slack);
    EXPECT_FALSE(slack.has("R003"));
}

TEST(Reach, StructurallyBrokenRunsAreSkippedNotReported) {
    // A run overrunning the horizon is the basic linter's L023 finding; the
    // reachability pass must skip it instead of double-reporting.
    LineWorld w;
    const SegmentGraph graph(w.network, kRes);
    Schedule schedule = w.schedule("StA", "StB", 0, 4);
    schedule.setHorizon(Seconds(30));  // arrival step 4 > horizon
    const auto reach = analyzeSchedule(graph, w.trains, schedule);
    ASSERT_TRUE(reach.analysis.has_value());
    EXPECT_EQ(reach.analysis->numRuns(), 0u);
    EXPECT_TRUE(reach.scheduleRunIndex.empty());

    LintReport report;
    lintReachability(graph, w.trains, schedule, report);
    EXPECT_TRUE(report.empty());
}

/// Every cell a completed greedy simulation occupies must be admitted by
/// the analysis: the simulator is an independent implementation of the
/// same movement semantics, so a violation here is an unsound exclusion.
void expectSimulationInsideWindows(const core::Instance& instance) {
    const auto finest = core::VssLayout::finest(instance.graph());
    const auto sim = gen::simulate(instance, finest);
    ASSERT_TRUE(sim.completed);
    const core::Solution witness = gen::solutionFromSimulation(instance, finest, sim);

    core::PruneTable table(instance);
    ASSERT_FALSE(table.provablyInfeasible());
    for (std::size_t run = 0; run < witness.traces.size(); ++run) {
        const core::RunTrace& trace = witness.traces[run];
        for (std::size_t t = 0; t < trace.occupied.size(); ++t) {
            for (const SegmentId seg : trace.occupied[t]) {
                EXPECT_TRUE(table.possible(run, seg, static_cast<int>(t)))
                    << "simulated occupancy outside the window: run " << run
                    << " segment " << seg.get() << " step " << t;
            }
        }
    }
}

TEST(Reach, SimulatedTrajectoriesStayInsideTheWindows) {
    {
        LineWorld w;
        const Schedule schedule = w.schedule("StA", "StB", 0, 4);
        const core::Instance instance(w.network, w.trains, schedule, kRes);
        expectSimulationInsideWindows(instance);
    }
    // Feasible-kind generated scenarios complete by construction (their
    // deadlines are sampled from the simulation itself).
    for (const gen::Family family :
         {gen::Family::Corridor, gen::Family::Station, gen::Family::Network}) {
        gen::GenParams params;
        params.family = family;
        params.schedule = gen::ScheduleKind::Feasible;
        params.seed = 11;
        params.size = 2;
        params.trains = 2;
        const auto scenario = gen::generate(params);
        SCOPED_TRACE(scenario.name);
        const core::Instance instance(scenario.network, scenario.trains,
                                      scenario.schedule, params.resolution);
        expectSimulationInsideWindows(instance);
    }
}

TEST(Reach, PruningShrinksTheEncodingButKeepsTheVerdict) {
    // Slack after the pinned arrival triggers the prompt-model truncation:
    // the pruned encoding drops the post-arrival tail entirely.
    LineWorld w;
    Schedule schedule = w.schedule("StA", "StB", 0, 4);
    schedule.setHorizon(Seconds(240));
    const core::Instance instance(w.network, w.trains, schedule, kRes);
    const core::VssLayout finest = core::VssLayout::finest(instance.graph());

    int fullVars = 0;
    for (const bool prune : {false, true}) {
        core::TaskOptions options;
        options.lintInstance = false;
        options.encoder.pruneUnreachable = prune;
        const auto verdict = core::verifySchedule(instance, finest, options);
        EXPECT_TRUE(verdict.feasible);
        ASSERT_TRUE(verdict.solution.has_value());
        EXPECT_TRUE(core::validateSolution(instance, *verdict.solution).empty());
        if (!prune) {
            fullVars = verdict.stats.numVariables;
        } else {
            EXPECT_LT(verdict.stats.numVariables, fullVars)
                << "pruning must remove variables on a pinned run with slack";
        }
    }
}

TEST(Reach, ProvablyInfeasibleInstanceStaysUnsatWhenPruned) {
    // The dangerous corner: the analysis empties the destination pin, so
    // the pruned encoding must still produce falsum — never a model.
    LineWorld w;
    const Schedule schedule = w.schedule("StA", "StB", 0, 2);
    const core::Instance instance(w.network, w.trains, schedule, kRes);
    const core::PruneTable table(instance);
    EXPECT_TRUE(table.provablyInfeasible());

    const core::VssLayout finest = core::VssLayout::finest(instance.graph());
    for (const bool prune : {false, true}) {
        core::TaskOptions options;
        options.lintInstance = false;
        options.encoder.pruneUnreachable = prune;
        EXPECT_FALSE(core::verifySchedule(instance, finest, options).feasible)
            << (prune ? "pruned" : "full") << " encoding found a bogus model";
    }
}

/// The tasks' gate (core::PruneTable over a core::Instance) and
/// `etcslint --reach` (analyzeSchedule over the rail-level schedule) take
/// their runs from one rail::discretize: they admit the same cells and
/// refute the same obligations.
void expectGateAndLinterAgree(const Network& network, const TrainSet& trains,
                              const Schedule& schedule, Resolution resolution) {
    const core::Instance instance(network, trains, schedule, resolution);
    const core::PruneTable gate(instance);
    const ScheduleReach linter = analyzeSchedule(instance.graph(), trains, schedule);
    ASSERT_TRUE(linter.analysis.has_value());
    const ReachAnalysis& analysis = *linter.analysis;
    ASSERT_EQ(analysis.horizonSteps(), instance.horizonSteps());
    ASSERT_EQ(analysis.numRuns(), instance.numRuns());
    for (std::size_t run = 0; run < instance.numRuns(); ++run) {
        ASSERT_EQ(linter.scheduleRunIndex[run], run);
        for (std::size_t s = 0; s < instance.graph().numSegments(); ++s) {
            for (int t = 0; t < instance.horizonSteps(); ++t) {
                ASSERT_EQ(gate.possible(run, SegmentId(s), t),
                          analysis.possible(run, SegmentId(s), t))
                    << "run " << run << " segment " << s << " step " << t;
            }
        }
    }
    const auto expected = gate.analysis().violations();
    const auto actual = analysis.violations();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].run, expected[i].run);
        EXPECT_EQ(actual[i].stopIndex, expected[i].stopIndex);
        EXPECT_EQ(actual[i].kind, expected[i].kind);
        EXPECT_EQ(actual[i].step, expected[i].step);
    }
}

TEST(Reach, GateAndLinterAgreeOnThePaperStudies) {
    for (const auto make : {&studies::runningExample, &studies::simpleLayout,
                            &studies::complexLayout, &studies::nordlandsbanen}) {
        const studies::CaseStudy study = make();
        for (const Schedule* schedule : {&study.timedSchedule, &study.openSchedule}) {
            SCOPED_TRACE(study.name + (schedule == &study.timedSchedule ? " timed" : " open"));
            expectGateAndLinterAgree(study.network, study.trains, *schedule, study.resolution);
        }
    }
}

TEST(Reach, GateAndLinterAgreeOnTheGeneratedCorpus) {
    const std::filesystem::path dir = std::filesystem::path(ETCS_FIXTURE_DIR) / "gen";
    std::vector<std::filesystem::path> rails;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".rail") {
            rails.push_back(entry.path());
        }
    }
    std::sort(rails.begin(), rails.end());
    ASSERT_EQ(rails.size(), 10u);
    for (const auto& railFile : rails) {
        SCOPED_TRACE(railFile.filename().string());
        std::ifstream railIn(railFile);
        const Network network = rail::readNetwork(railIn);
        std::ifstream schedIn(std::filesystem::path(railFile).replace_extension(".sched"));
        const rail::Scenario scenario = rail::readScenario(schedIn, network);
        // Every fixture's manifest records r_s = 500 m, r_t = 60 s.
        expectGateAndLinterAgree(network, scenario.trains, scenario.schedule,
                                 Resolution{Meters(500), Seconds(60)});
    }
}

}  // namespace
}  // namespace etcs::lint
