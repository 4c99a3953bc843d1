// Tests for the design-space analyses (trade-off curves, delay robustness,
// schedule slack) and the task variants they sit beside: cost-weighted layout
// generation and per-train arrival optimization.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/validator.hpp"
#include "obs/metrics.hpp"
#include "studies/studies.hpp"
#include "support/cancelling_backend.hpp"
#include "support/forwarding_backend.hpp"
#include "support/single_train_line.hpp"

namespace etcs::core {
namespace {

struct AnalysisFixture : ::testing::Test {
    studies::CaseStudy study = studies::runningExample();
    Instance timed{study.network, study.trains, study.timedSchedule, study.resolution};
    Instance open{study.network, study.trains, study.openSchedule, study.resolution};
};

TEST_F(AnalysisFixture, TradeoffCurveIsMonotoneNonIncreasing) {
    const auto curve = tradeoffCurve(open, 5).points;
    ASSERT_GE(curve.size(), 2u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        if (curve[i - 1].feasible) {
            ASSERT_TRUE(curve[i].feasible) << "feasibility must be monotone in the budget";
            EXPECT_LE(curve[i].completionSteps, curve[i - 1].completionSteps);
        }
    }
}

TEST_F(AnalysisFixture, TradeoffCurveEndpointsMatchBaseTasks) {
    const auto curve = tradeoffCurve(open, 8).points;
    // Budget 0 = pure TTD layout: must match optimizeScheduleOnLayout.
    const VssLayout pure(open.graph());
    const auto onPure = optimizeScheduleOnLayout(open, pure);
    ASSERT_FALSE(curve.empty());
    EXPECT_EQ(curve.front().feasible, onPure.feasible);
    if (onPure.feasible) {
        EXPECT_EQ(curve.front().completionSteps, onPure.completionSteps);
    }
    // Large budget: must match the unconstrained optimization.
    const auto free = optimizeSchedule(open);
    ASSERT_TRUE(free.feasible);
    const auto& last = curve.back();
    ASSERT_TRUE(last.feasible);
    EXPECT_EQ(last.completionSteps, free.completionSteps);
}

TEST_F(AnalysisFixture, TradeoffSectionCountRespectsBudget) {
    const auto curve = tradeoffCurve(open, 4).points;
    const int ttdSections = VssLayout(open.graph()).sectionCount(open.graph());
    for (const auto& point : curve) {
        if (point.feasible) {
            EXPECT_LE(point.sectionCount, ttdSections + point.extraBorders);
        }
    }
}

TEST_F(AnalysisFixture, RobustnessOnGeneratedLayout) {
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    const auto report = delayRobustness(timed, generation.solution->layout, 3);
    ASSERT_EQ(report.feasible.size(), timed.numRuns());
    ASSERT_EQ(report.toleranceSteps.size(), timed.numRuns());
    for (std::size_t r = 0; r < timed.numRuns(); ++r) {
        ASSERT_EQ(report.feasible[r].size(), 3u);
        // Tolerance is consistent with the feasibility prefix.
        int prefix = 0;
        while (prefix < 3 && report.feasible[r][static_cast<std::size_t>(prefix)]) {
            ++prefix;
        }
        EXPECT_EQ(report.toleranceSteps[r], prefix);
    }
}

TEST_F(AnalysisFixture, RobustnessOnFinestLayoutIsNoWorse) {
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    const auto onGenerated = delayRobustness(timed, generation.solution->layout, 2);
    const auto onFinest = delayRobustness(timed, VssLayout::finest(timed.graph()), 2);
    for (std::size_t r = 0; r < timed.numRuns(); ++r) {
        EXPECT_GE(onFinest.toleranceSteps[r], onGenerated.toleranceSteps[r]);
    }
}

TEST_F(AnalysisFixture, RobustnessWithoutArrivalShiftIsTighter) {
    // Keeping original deadlines while departing late can only be harder.
    const auto finest = VssLayout::finest(timed.graph());
    const auto shifted = delayRobustness(timed, finest, 2, /*shiftArrivals=*/true);
    const auto strict = delayRobustness(timed, finest, 2, /*shiftArrivals=*/false);
    for (std::size_t r = 0; r < timed.numRuns(); ++r) {
        EXPECT_LE(strict.toleranceSteps[r], shifted.toleranceSteps[r]);
    }
}

TEST_F(AnalysisFixture, WeightedGenerationWithUniformCostsMatchesPlain) {
    const auto plain = generateLayout(timed);
    const auto weighted = generateLayoutWeighted(timed, [](SegNodeId) { return 1; });
    ASSERT_TRUE(plain.feasible);
    ASSERT_TRUE(weighted.feasible);
    EXPECT_EQ(weighted.sectionCount, plain.sectionCount);
    EXPECT_TRUE(validateSolution(timed, *weighted.solution).empty());
}

TEST_F(AnalysisFixture, WeightedGenerationAvoidsExpensiveBorders) {
    // Make the border the plain generator picks (on the side track)
    // expensive; the weighted generator must place cheaper borders instead
    // (possibly more of them) or pay up -- either way total cost <= plain
    // plan's cost under the same weights.
    const auto plain = generateLayout(timed);
    ASSERT_TRUE(plain.feasible);
    const auto& graph = timed.graph();
    // Identify the plain solution's virtual borders.
    std::vector<bool> plainBorders = plain.solution->layout.flags();
    auto cost = [&](SegNodeId node) { return plainBorders[node.get()] ? 10 : 1; };
    const auto weighted = generateLayoutWeighted(timed, cost);
    ASSERT_TRUE(weighted.feasible);
    EXPECT_TRUE(validateSolution(timed, *weighted.solution).empty());
    int weightedCost = 0;
    int plainCost = 0;
    for (std::size_t n = 0; n < graph.numNodes(); ++n) {
        if (graph.node(SegNodeId(n)).fixedBorder) {
            continue;
        }
        if (weighted.solution->layout.flags()[n]) {
            weightedCost += cost(SegNodeId(n));
        }
        if (plainBorders[n]) {
            plainCost += cost(SegNodeId(n));
        }
    }
    EXPECT_LE(weightedCost, plainCost);
}

/// Weighted generation runs the tasks' pipeline: with unit costs it builds
/// generateLayout's formula and runs its search, so it reports the same
/// formula size and solver work.
TEST(WeightedGeneration, UnitCostsReportTheWorkOfGenerateLayout) {
    const auto check = [](const studies::CaseStudy& study) {
        SCOPED_TRACE(study.name);
        const Instance timed(study.network, study.trains, study.timedSchedule,
                             study.resolution);
        const auto plain = generateLayout(timed);
        const auto weighted = generateLayoutWeighted(timed, [](SegNodeId) { return 1; });
        ASSERT_TRUE(plain.feasible);
        ASSERT_TRUE(weighted.feasible);
        EXPECT_GT(plain.stats.propagations, 0U);
        EXPECT_EQ(weighted.stats.numVariables, plain.stats.numVariables);
        EXPECT_EQ(weighted.stats.numClauses, plain.stats.numClauses);
        EXPECT_EQ(weighted.stats.solveCalls, plain.stats.solveCalls);
        EXPECT_EQ(weighted.stats.conflicts, plain.stats.conflicts);
        EXPECT_EQ(weighted.stats.propagations, plain.stats.propagations);
        EXPECT_EQ(weighted.stats.decisions, plain.stats.decisions);
    };
    check(studies::runningExample());
    check(studies::simpleLayout());
}

TEST_F(AnalysisFixture, WeightedGenerationRejectsNonPositiveCosts) {
    EXPECT_THROW((void)generateLayoutWeighted(timed, [](SegNodeId) { return 0; }),
                 PreconditionError);
}

TEST_F(AnalysisFixture, TradeoffRejectsNegativeBudget) {
    EXPECT_THROW((void)tradeoffCurve(open, -1), PreconditionError);
}

/// What the backends a counting factory built have seen.
struct BackendCounts {
    std::size_t clauses = 0;
    std::uint64_t solves = 0;
};

/// Counts the clauses and solve calls handed to every backend its factory
/// builds.
class CountingBackend final : public test::ForwardingBackend {
public:
    explicit CountingBackend(BackendCounts& counts) : counts_(&counts) {}

    using test::ForwardingBackend::addClause;
    using test::ForwardingBackend::solve;

    void addClause(std::span<const cnf::Literal> literals) override {
        ++counts_->clauses;
        test::ForwardingBackend::addClause(literals);
    }
    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override {
        ++counts_->solves;
        return test::ForwardingBackend::solve(assumptions);
    }

private:
    BackendCounts* counts_;
};

TaskOptions countingOptions(BackendCounts& counts) {
    TaskOptions options;
    options.backendFactory = [&counts] { return std::make_unique<CountingBackend>(counts); };
    return options;
}

/// tradeoffCurve runs the task pipeline and reports its cost: a horizon too
/// short for any completion, or a schedule the lint/reach gate refutes, gives
/// every point infeasible without emitting a clause, and stats with no
/// solver work.
TEST_F(AnalysisFixture, TradeoffCurveWithoutACompletionEmitsNoFormula) {
    BackendCounts counts;
    const TaskOptions counting = countingOptions(counts);
    const auto expectNoFormula = [&](const Instance& instance) {
        counts = {};
        const auto curve = tradeoffCurve(instance, 2, counting);
        EXPECT_EQ(counts.clauses, 0U);
        EXPECT_EQ(counts.solves, 0U);
        ASSERT_EQ(curve.points.size(), 3U);
        for (std::size_t k = 0; k < curve.points.size(); ++k) {
            EXPECT_EQ(curve.points[k].extraBorders, static_cast<int>(k));
            EXPECT_FALSE(curve.points[k].feasible);
        }
        EXPECT_EQ(curve.stats.numVariables, 0);
        EXPECT_EQ(curve.stats.numClauses, 0U);
        EXPECT_EQ(curve.stats.solveCalls, 0U);
        EXPECT_EQ(curve.stats.conflicts, 0U);
        EXPECT_EQ(curve.stats.propagations, 0U);
        EXPECT_EQ(curve.stats.decisions, 0U);
    };

    rail::Schedule shortened = study.openSchedule;
    shortened.setHorizon(Seconds(study.resolution.temporal.count() * 3));
    const Instance tooShort(study.network, study.trains, shortened, study.resolution);
    ASSERT_EQ(tooShort.horizonSteps(), 4);
    ASSERT_GT(tooShort.completionLowerBound(), tooShort.horizonSteps() - 1);
    {
        SCOPED_TRACE("horizon too short");
        expectNoFormula(tooShort);
    }

    // The first run due at its destination one step after it departs: the
    // gate proves that infeasible before anything is encoded.
    const rail::Schedule& timedSchedule = study.timedSchedule;
    rail::TrainRun first = timedSchedule.runs().front();
    first.stops.back().arrival = first.departure + study.resolution.temporal;
    rail::Schedule gated;
    gated.addRun(std::move(first));
    for (std::size_t r = 1; r < timedSchedule.size(); ++r) {
        gated.addRun(timedSchedule.runs()[r]);
    }
    gated.setHorizon(timedSchedule.horizon());
    const Instance refuted(study.network, study.trains, gated, study.resolution);
    ASSERT_LE(refuted.completionLowerBound(), refuted.horizonSteps() - 1);
    auto& registry = obs::Registry::global();
    const auto rejections = [&] {
        return registry.counter("etcs.task.tradeoff.lint_rejected").value() +
               registry.counter("etcs.task.tradeoff.reach_rejected").value();
    };
    const auto before = rejections();
    {
        SCOPED_TRACE("gate rejects");
        expectNoFormula(refuted);
    }
    EXPECT_EQ(rejections(), before + 1);

    // The same counting backend does see the formula of a curve that solves,
    // and the curve's stats count exactly the clauses and solves it saw.
    counts = {};
    const auto curve = tradeoffCurve(open, 2, counting);
    EXPECT_GT(counts.clauses, 0U);
    EXPECT_TRUE(curve.points.back().feasible);
    EXPECT_GT(curve.stats.numVariables, 0);
    EXPECT_EQ(curve.stats.numClauses, counts.clauses);
    EXPECT_EQ(curve.stats.solveCalls, counts.solves);
    EXPECT_GT(curve.stats.conflicts, 0U);
}

TEST_F(AnalysisFixture, RobustnessRequiresTimedSchedule) {
    const VssLayout pure(open.graph());
    EXPECT_THROW((void)delayRobustness(open, pure, 2), PreconditionError);
}

TEST_F(AnalysisFixture, SlackOnFinestLayoutMatchesPhysicalBounds) {
    const auto finest = VssLayout::finest(timed.graph());
    const auto report = scheduleSlack(timed, finest);
    ASSERT_EQ(report.slackSteps.size(), timed.numRuns());
    for (std::size_t r = 0; r < timed.numRuns(); ++r) {
        // The schedule is feasible on the finest layout, so every run gets a
        // tightest arrival, bounded below by its unimpeded travel time.
        ASSERT_GE(report.tightestArrivalStep[r], 0);
        const auto& run = timed.runs()[r];
        const int travel =
            timed.graph().distance(run.originSegment, run.destination().segment);
        const int bound =
            run.departureStep +
            rail::travelLowerBound(travel, run.lengthSegments, run.speedSegments);
        EXPECT_GE(report.tightestArrivalStep[r], bound);
        EXPECT_LE(report.tightestArrivalStep[r], *run.destination().arrivalStep);
        EXPECT_EQ(report.slackSteps[r],
                  *run.destination().arrivalStep - report.tightestArrivalStep[r]);
    }
}

/// The single train of test::SingleTrainLine covers B with its body at
/// departure (9 segments long, B 7 hops away), so on the pure layout it can
/// be pinned at B as early as step 0. A bound blind to the body would stop
/// the search at step 2.
TEST(AnalysisBodySlack, SlackReachesTheDepartureStep) {
    const test::SingleTrainLine line(500, 900, 30, Seconds::fromMinutes(10),
                                     Seconds::fromMinutes(5));
    const Instance instance(line.network, line.trains, line.schedule, line.kResolution);
    const auto report = scheduleSlack(instance, VssLayout(instance.graph()));
    EXPECT_EQ(report.tightestArrivalStep, std::vector<int>{0});
    EXPECT_EQ(report.slackSteps, std::vector<int>{5});
}

/// The same train with B open: both arrival-objective variants find the
/// one-step completion, at a 3-step horizon as at an 11-step one.
TEST(AnalysisBodySlack, ArrivalObjectivesFindTheOneStepCompletion) {
    for (const int minutes : {2, 10}) {
        SCOPED_TRACE(std::to_string(minutes) + " min horizon");
        const test::SingleTrainLine line(500, 900, 30, Seconds::fromMinutes(minutes));
        const Instance instance(line.network, line.trains, line.schedule, line.kResolution);

        const auto arrivals = optimizeIndividualArrivals(instance);
        ASSERT_TRUE(arrivals.feasible);
        EXPECT_EQ(arrivals.doneSteps, std::vector<int>{1});
        EXPECT_TRUE(validateSolution(instance, *arrivals.solution).empty());

        const auto curve = tradeoffCurve(instance, 1);
        ASSERT_FALSE(curve.points.empty());
        EXPECT_EQ(curve.points[0].extraBorders, 0);
        EXPECT_TRUE(curve.points[0].feasible);
        EXPECT_EQ(curve.points[0].completionSteps, 1);
    }
}

/// A probe below an intermediate stop's pinned arrival is no schedule at
/// all (Instance rejects it); the search starts at that arrival instead.
TEST(AnalysisSlack, IntermediatePinnedStopBoundsTheSearch) {
    rail::Network network("via");
    const auto n0 = network.addNode("n0");
    const auto n1 = network.addNode("n1");
    const auto n2 = network.addNode("n2");
    const auto t0 = network.addTrack("t0", n0, n1, Meters(2000));
    const auto t1 = network.addTrack("t1", n1, n2, Meters(2000));
    network.addTtd("T0", {t0});
    network.addTtd("T1", {t1});
    rail::TrainSet trains;
    rail::TrainRun run;
    run.train = trains.addTrain("T", Speed::fromKmPerHour(60), Meters(100));
    run.origin = network.addStation("A", t0, Meters(0));
    run.departure = Seconds(0);
    run.stops.push_back(
        rail::TimedStop{network.addStation("M", t1, Meters(0)), Seconds::fromMinutes(8)});
    run.stops.push_back(
        rail::TimedStop{network.addStation("B", t1, Meters(2000)), Seconds::fromMinutes(10)});
    rail::Schedule schedule;
    schedule.addRun(run);
    const Instance instance(network, trains, schedule, Resolution{Meters(500), Seconds(60)});

    SlackReport report;
    ASSERT_NO_THROW(report = scheduleSlack(instance, VssLayout(instance.graph())));
    EXPECT_EQ(report.tightestArrivalStep, std::vector<int>{10});
    EXPECT_EQ(report.slackSteps, std::vector<int>{0});
}

TEST_F(AnalysisFixture, SlackTightenedScheduleStaysFeasible) {
    // Re-verify with one run's arrival replaced by its tightest value.
    const auto finest = VssLayout::finest(timed.graph());
    const auto report = scheduleSlack(timed, finest);
    ASSERT_GE(report.tightestArrivalStep[0], 0);
    rail::Schedule tightened;
    for (std::size_t r = 0; r < study.timedSchedule.size(); ++r) {
        rail::TrainRun run = study.timedSchedule.runs()[r];
        if (r == 0) {
            run.stops.back().arrival =
                Seconds(study.resolution.temporal.count() * report.tightestArrivalStep[0]);
        }
        tightened.addRun(std::move(run));
    }
    tightened.setHorizon(study.timedSchedule.horizon());
    const Instance tightInstance(study.network, study.trains, tightened, study.resolution);
    EXPECT_TRUE(verifySchedule(tightInstance, finest).feasible);
}

TEST_F(AnalysisFixture, SlackOnInfeasibleLayoutIsMinusOne) {
    const VssLayout pure(timed.graph());  // schedule infeasible on pure TTD
    const auto report = scheduleSlack(timed, pure);
    for (std::size_t r = 0; r < timed.numRuns(); ++r) {
        EXPECT_EQ(report.tightestArrivalStep[r], -1);
        EXPECT_EQ(report.slackSteps[r], -1);
    }
}

TEST_F(AnalysisFixture, SlackRequiresTimedSchedule) {
    const auto finest = VssLayout::finest(open.graph());
    EXPECT_THROW((void)scheduleSlack(open, finest), PreconditionError);
}

TEST_F(AnalysisFixture, IndividualArrivalsRespectPriority) {
    const auto result = optimizeIndividualArrivals(open);
    ASSERT_TRUE(result.feasible);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(open, *result.solution).empty());
    // The priority train's done step is a true minimum: one step earlier is
    // infeasible even before any other train is constrained.
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, open);
    encoder.encode(nullptr);
    const cnf::Literal everyone[] = {
        encoder.doneAllLiteral(open.horizonSteps() - 1)};
    const cnf::Literal oneEarlier = encoder.doneLiteral(0, result.doneSteps[0] - 1);
    std::vector<cnf::Literal> assumptions(everyone, everyone + 1);
    if (oneEarlier.valid()) {
        assumptions.push_back(oneEarlier);
        EXPECT_EQ(backend->solve(assumptions), cnf::SolveStatus::Unsat);
    }
}

/// With every arrival frozen, the per-train objective minimizes sections as
/// optimizeSchedule does after its completion search: the running example
/// needs 5 sections (1 virtual border), not all 7 candidate borders.
TEST_F(AnalysisFixture, IndividualArrivalsMinimizeSections) {
    const auto result = optimizeIndividualArrivals(open);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.doneSteps, (std::vector<int>{9, 7, 5, 9}));
    EXPECT_EQ(result.solution->completionSteps, 9);
    EXPECT_EQ(result.solution->sectionCount, 5);
    EXPECT_EQ(result.solution->layout.virtualBorderCount(open.graph()), 1);
    EXPECT_EQ(result.solution->sectionCount, optimizeSchedule(open).sectionCount);
}

TEST_F(AnalysisFixture, IndividualArrivalsWithReversedPriority) {
    std::vector<std::size_t> reversed(open.numRuns());
    for (std::size_t i = 0; i < reversed.size(); ++i) {
        reversed[i] = open.numRuns() - 1 - i;
    }
    const auto result = optimizeIndividualArrivals(open, reversed);
    ASSERT_TRUE(result.feasible);
    // The now-top-priority train (last run) can only improve or match its
    // done step from the default order.
    const auto defaultOrder = optimizeIndividualArrivals(open);
    ASSERT_TRUE(defaultOrder.feasible);
    EXPECT_LE(result.doneSteps.back(), defaultOrder.doneSteps.back());
}

TEST_F(AnalysisFixture, IndividualArrivalsReportSolverWork) {
    const auto result = optimizeIndividualArrivals(open);
    ASSERT_TRUE(result.feasible);
    EXPECT_GT(result.stats.solveCalls, 1U);
    EXPECT_GT(result.stats.numClauses, 0U);
    EXPECT_GT(result.stats.propagations, 0U);
    EXPECT_GT(result.stats.decisions, 0U);
}

TEST_F(AnalysisFixture, IndividualArrivalsRejectBadPriority) {
    EXPECT_THROW((void)optimizeIndividualArrivals(open, {0, 1}), PreconditionError);
}

/// The priority list must be a permutation of the runs: a repeated run
/// would leave another run unoptimized, and an unknown one has no arrival.
TEST_F(AnalysisFixture, IndividualArrivalsRequireAPermutation) {
    ASSERT_EQ(open.numRuns(), 4U);
    EXPECT_THROW((void)optimizeIndividualArrivals(open, {0, 0, 1, 2}), PreconditionError);
    EXPECT_THROW((void)optimizeIndividualArrivals(open, {0, 1, 2, 7}), PreconditionError);

    // An empty list still means schedule order.
    const auto scheduleOrder = optimizeIndividualArrivals(open, {0, 1, 2, 3});
    const auto empty = optimizeIndividualArrivals(open, {});
    ASSERT_TRUE(empty.feasible);
    EXPECT_EQ(empty.doneSteps, scheduleOrder.doneSteps);
    for (const int done : empty.doneSteps) {
        EXPECT_GE(done, 0);
    }
}

/// The analyses solve on the task's backend: a counting backendFactory sees
/// every solve each of them reports.
TEST_F(AnalysisFixture, AnalysesSolveOnTheTaskBackend) {
    BackendCounts counts;
    const TaskOptions counting = countingOptions(counts);

    const auto curve = tradeoffCurve(open, 3, counting);
    EXPECT_GT(counts.solves, 0U) << "tradeoffCurve ignored backendFactory";
    EXPECT_EQ(curve.stats.solveCalls, counts.solves);

    counts = {};
    const auto weighted = generateLayoutWeighted(
        timed, [](SegNodeId node) { return 1 + static_cast<int>(node.get() % 3); }, counting);
    ASSERT_TRUE(weighted.feasible);
    EXPECT_GT(counts.solves, 0U) << "generateLayoutWeighted ignored backendFactory";
    EXPECT_EQ(weighted.stats.solveCalls, counts.solves);

    counts = {};
    const auto arrivals = optimizeIndividualArrivals(open, {}, counting);
    ASSERT_TRUE(arrivals.feasible);
    EXPECT_GT(counts.solves, 0U) << "optimizeIndividualArrivals ignored backendFactory";
    EXPECT_EQ(arrivals.stats.solveCalls, counts.solves);
}

/// A cancelled solve anywhere in optimizeIndividualArrivals — the
/// everyone-finishes check, a per-train search or the final re-solve —
/// ends it with no solution instead of a thrown PreconditionError.
TEST_F(AnalysisFixture, IndividualArrivalsCancelledAtAnySolveReturnNoSolution) {
    // Runs the analysis with solves cancelled from `cancelFrom` on; returns
    // (feasible, solve calls made).
    const auto run = [&](std::uint64_t cancelFrom) {
        std::uint64_t solves = 0;
        TaskOptions options;
        options.backendFactory = [cancelFrom, &solves] {
            return std::make_unique<test::CancellingBackend>(cancelFrom, solves);
        };
        const auto result = optimizeIndividualArrivals(open, {}, options);
        EXPECT_EQ(result.solution.has_value(), result.feasible);
        return std::pair{result.feasible, solves};
    };
    const auto [feasible, calls] = run(UINT64_MAX);
    ASSERT_TRUE(feasible);
    ASSERT_GE(calls, 2U);
    for (std::uint64_t cancelFrom = 1; cancelFrom <= calls; ++cancelFrom) {
        SCOPED_TRACE("cancelled from solve " + std::to_string(cancelFrom));
        std::pair<bool, std::uint64_t> cancelled{true, 0};
        EXPECT_NO_THROW(cancelled = run(cancelFrom));
        EXPECT_FALSE(cancelled.first);
        EXPECT_EQ(cancelled.second, cancelFrom) << "the analysis kept solving";
    }
}

}  // namespace
}  // namespace etcs::core
