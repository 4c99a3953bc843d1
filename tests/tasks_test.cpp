// Task-level API tests on the running example (paper Fig. 1/2, Table I rows
// 1-3) plus option behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "obs/metrics.hpp"
#include "studies/studies.hpp"
#include "support/cancelling_backend.hpp"
#include "support/single_train_line.hpp"

namespace etcs::core {
namespace {

struct RunningFixture : ::testing::Test {
    studies::CaseStudy study = studies::runningExample();
    Instance timed{study.network, study.trains, study.timedSchedule, study.resolution};
    Instance open{study.network, study.trains, study.openSchedule, study.resolution};
};

TEST_F(RunningFixture, VerificationOnPureTtdIsInfeasible) {
    const VssLayout pure(timed.graph());
    EXPECT_EQ(pure.sectionCount(timed.graph()), 4);
    const auto result = verifySchedule(timed, pure);
    EXPECT_FALSE(result.feasible);  // Table I row 1: "No"
    EXPECT_FALSE(result.solution.has_value());
    EXPECT_GT(result.stats.numVariables, 0);
    EXPECT_GT(result.stats.numClauses, 0u);
}

TEST_F(RunningFixture, VerificationOnFinestLayoutSucceeds) {
    const auto finest = VssLayout::finest(timed.graph());
    const auto result = verifySchedule(timed, finest);
    EXPECT_TRUE(result.feasible);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(timed, *result.solution).empty());
}

TEST_F(RunningFixture, GenerationFindsSmallLayout) {
    const auto result = generateLayout(timed);
    ASSERT_TRUE(result.feasible);  // Table I row 2: "Yes"
    // Paper: 5 sections suffice (4 TTDs + 1 virtual border).
    EXPECT_EQ(result.sectionCount, 5);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(timed, *result.solution).empty());
}

TEST_F(RunningFixture, GeneratedLayoutPassesVerification) {
    const auto generated = generateLayout(timed);
    ASSERT_TRUE(generated.feasible);
    const auto verified = verifySchedule(timed, generated.solution->layout);
    EXPECT_TRUE(verified.feasible);
}

TEST_F(RunningFixture, GenerationWithoutMinimizationIsFeasibleButLarger) {
    TaskOptions options;
    options.minimizeSections = false;
    const auto result = generateLayout(timed, options);
    ASSERT_TRUE(result.feasible);
    EXPECT_GE(result.sectionCount, 5);
    EXPECT_LE(result.stats.solveCalls, 2u);
}

TEST_F(RunningFixture, OptimizationBeatsTheTimedSchedule) {
    const auto result = optimizeSchedule(open);
    ASSERT_TRUE(result.feasible);  // Table I row 3: "Yes"
    // The timed schedule needs 11 steps (last arrival at step 10); the
    // optimizer must finish strictly earlier (paper: 7 < 10).
    EXPECT_LT(result.completionSteps, timed.horizonSteps());
    EXPECT_GE(result.sectionCount, 4);
    ASSERT_TRUE(result.solution.has_value());
    EXPECT_TRUE(validateSolution(open, *result.solution).empty());
    EXPECT_EQ(result.solution->completionSteps, result.completionSteps);
}

TEST_F(RunningFixture, OptimizationCompletionIsAMinimum) {
    // Re-solving with the completion bound one step lower must fail: do the
    // cross-check via a fresh encoder.
    const auto result = optimizeSchedule(open);
    ASSERT_TRUE(result.feasible);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, open);
    encoder.encode(nullptr);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(result.completionSteps - 1)}),
              cnf::SolveStatus::Unsat);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(result.completionSteps)}),
              cnf::SolveStatus::Sat);
}

TEST_F(RunningFixture, OptimizationOnPureLayoutIsWorseOrInfeasible) {
    const VssLayout pure(open.graph());
    const auto onPure = optimizeScheduleOnLayout(open, pure);
    const auto free = optimizeSchedule(open);
    ASSERT_TRUE(free.feasible);
    if (onPure.feasible) {
        EXPECT_GE(onPure.completionSteps, free.completionSteps);
    }
}

TEST_F(RunningFixture, LexicographicSectionsReduceLayout) {
    TaskOptions lexicographic;
    lexicographic.lexicographicSections = true;
    TaskOptions plain;
    plain.lexicographicSections = false;
    const auto with = optimizeSchedule(open, lexicographic);
    const auto without = optimizeSchedule(open, plain);
    ASSERT_TRUE(with.feasible);
    ASSERT_TRUE(without.feasible);
    EXPECT_EQ(with.completionSteps, without.completionSteps);
    EXPECT_LE(with.sectionCount, without.sectionCount);
}

TEST_F(RunningFixture, SearchStrategiesAgreeOnGeneration) {
    int sections[2];
    int i = 0;
    for (const auto strategy : {opt::SearchStrategy::LinearDown, opt::SearchStrategy::Binary}) {
        TaskOptions options;
        options.borderSearch = strategy;
        const auto result = generateLayout(timed, options);
        ASSERT_TRUE(result.feasible);
        sections[i++] = result.sectionCount;
    }
    EXPECT_EQ(sections[0], sections[1]);
}

TEST_F(RunningFixture, VerificationRequiresTimedSchedule) {
    const VssLayout pure(open.graph());
    EXPECT_THROW((void)verifySchedule(open, pure), PreconditionError);
    EXPECT_THROW((void)generateLayout(open), PreconditionError);
}

TEST_F(RunningFixture, OptimizationInfeasibleOnTooShortHorizon) {
    rail::Schedule shortSchedule;
    for (const auto& run : study.openSchedule.runs()) {
        shortSchedule.addRun(run);
    }
    shortSchedule.setHorizon(Seconds(3 * 30));  // 3 steps: nobody can finish
    const Instance tiny(study.network, study.trains, shortSchedule, study.resolution);
    const auto result = optimizeSchedule(tiny);
    EXPECT_FALSE(result.feasible);
}

/// A horizon shorter than any possible completion is its own verdict — no
/// encode, no solver call, and the lower bound that a retry must beat is
/// reported — whatever the horizon: the check comes before the lint gate,
/// whose horizon lints reject the shortest of these as infeasible.
TEST_F(RunningFixture, OptimizeReportsHorizonTooShort) {
    auto& tooShort = obs::Registry::global().counter("etcs.task.optimize.horizon_too_short");
    for (int steps = 3; steps <= 6; ++steps) {
        SCOPED_TRACE(std::to_string(steps) + " horizon steps");
        rail::Schedule shortened = study.openSchedule;
        shortened.setHorizon(Seconds(study.resolution.temporal.count() * (steps - 1)));
        const Instance instance(study.network, study.trains, shortened, study.resolution);
        ASSERT_EQ(instance.horizonSteps(), steps);
        const auto before = tooShort.value();
        const auto result = optimizeSchedule(instance);
        EXPECT_FALSE(result.feasible);
        EXPECT_EQ(result.verdict, OptimizeVerdict::HorizonTooShort);
        EXPECT_EQ(toString(result.verdict), "horizon_too_short");
        EXPECT_GT(result.completionLowerBound, instance.horizonSteps() - 1);
        EXPECT_EQ(result.stats.solveCalls, 0U);
        EXPECT_EQ(result.stats.numClauses, 0U) << "rejection must not encode";
        EXPECT_EQ(tooShort.value(), before + 1);
    }
}

/// A feasible optimization must NOT be classified as HorizonTooShort.
TEST_F(RunningFixture, FeasibleOptimizationReportsFeasibleVerdict) {
    const auto result = optimizeSchedule(open);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.verdict, OptimizeVerdict::Feasible);
    EXPECT_EQ(toString(result.verdict), "feasible");
    EXPECT_LE(result.completionLowerBound, result.completionSteps);
}

TEST_F(RunningFixture, StatsRuntimeIsPopulated) {
    const auto result = generateLayout(timed);
    EXPECT_GT(result.stats.runtimeSeconds, 0.0);
    EXPECT_GT(result.stats.solveCalls, 0u);
}

/// Regression: a cancelled solve anywhere in a task — the completion
/// search, the border minimization or its re-solve — ends the task with no
/// solution instead of a thrown PreconditionError. Cancels at every solve
/// call an uncancelled run makes: generation on the complex layout,
/// optimization on the running example (whose completion search and border
/// pass are cheaper).
TEST(Tasks, CancellationAtAnySolveReturnsNoSolution) {
    const studies::CaseStudy complex = studies::complexLayout();
    const Instance timed(complex.network, complex.trains, complex.timedSchedule,
                         complex.resolution);
    const studies::CaseStudy running = studies::runningExample();
    const Instance open(running.network, running.trains, running.openSchedule,
                        running.resolution);
    for (const bool optimize : {false, true}) {
        SCOPED_TRACE(optimize ? "optimize" : "generate");
        // Runs the task with solves cancelled from `cancelFrom` on; returns
        // (feasible, solve calls made).
        const auto run = [&](std::uint64_t cancelFrom) {
            std::uint64_t solves = 0;
            TaskOptions options;
            options.backendFactory = [cancelFrom, &solves] {
                return std::make_unique<test::CancellingBackend>(cancelFrom, solves);
            };
            std::optional<Solution> solution;
            bool feasible = false;
            if (optimize) {
                auto result = optimizeSchedule(open, options);
                feasible = result.feasible;
                solution = std::move(result.solution);
                EXPECT_EQ(result.completionSteps, feasible ? 9 : 0);
            } else {
                auto result = generateLayout(timed, options);
                feasible = result.feasible;
                solution = std::move(result.solution);
            }
            EXPECT_EQ(solution.has_value(), feasible);
            return std::pair{feasible, solves};
        };
        const auto [feasible, calls] = run(UINT64_MAX);
        ASSERT_TRUE(feasible);
        ASSERT_GE(calls, 2U);
        for (std::uint64_t cancelFrom = 1; cancelFrom <= calls; ++cancelFrom) {
            SCOPED_TRACE("cancelled from solve " + std::to_string(cancelFrom));
            std::pair<bool, std::uint64_t> cancelled{true, 0};
            EXPECT_NO_THROW(cancelled = run(cancelFrom));
            EXPECT_FALSE(cancelled.first);
            EXPECT_EQ(cancelled.second, cancelFrom) << "the task kept solving";
        }
    }
}

TEST(Tasks, IntermediateStopIsHonoured) {
    // A -> via C -> B on the running example network: train 1 must pass
    // through station C's segment at its pinned time.
    auto study = studies::runningExample();
    rail::Schedule schedule;
    rail::TrainRun run;
    run.train = TrainId(0u);
    run.origin = *study.network.findStation("StA");
    run.departure = Seconds(0);
    run.stops.push_back(rail::TimedStop{*study.network.findStation("StC"), Seconds(60)});
    run.stops.push_back(rail::TimedStop{*study.network.findStation("StB"), Seconds(270)});
    schedule.addRun(run);
    const Instance instance(study.network, study.trains, schedule, study.resolution);
    const auto finest = VssLayout::finest(instance.graph());
    const auto result = verifySchedule(instance, finest);
    ASSERT_TRUE(result.feasible);
    const auto& trace = result.solution->traces[0];
    const SegmentId stopSegment =
        instance.graph().segmentOfStation(*study.network.findStation("StC"));
    const auto& atStop = trace.occupied[2];  // 0:01 -> step 2
    EXPECT_NE(std::find(atStop.begin(), atStop.end(), stopSegment), atStop.end());
    EXPECT_TRUE(validateSolution(instance, *result.solution).empty());
}

/// A 9-segment train whose destination lies 7 hops from its origin covers
/// it with its body at departure: the completion bound is one step, and
/// the optimum is one step at a 3-step horizon as at an 11-step one. A
/// bound blind to the body (ceil(7 / 5) = 2 travel steps) would start the
/// search at step 3 and call the 3-step horizon too short.
TEST(Tasks, CompletionBoundCountsTheTrainBody) {
    const test::SingleTrainLine wide(500, 900, 30, Seconds::fromMinutes(10));
    const test::SingleTrainLine narrow(500, 900, 30, Seconds::fromMinutes(2));
    const Instance wideInstance(wide.network, wide.trains, wide.schedule, wide.kResolution);
    const Instance narrowInstance(narrow.network, narrow.trains, narrow.schedule,
                                  narrow.kResolution);
    ASSERT_EQ(wideInstance.horizonSteps(), 11);
    ASSERT_EQ(narrowInstance.horizonSteps(), 3);
    const DiscreteRun& run = wideInstance.runs()[0];
    ASSERT_EQ(run.lengthSegments, 9);
    ASSERT_EQ(run.speedSegments, 5);
    ASSERT_EQ(wideInstance.graph().distance(run.originSegment, run.destination().segment), 7);

    for (const Instance* instance : {&wideInstance, &narrowInstance}) {
        SCOPED_TRACE(std::to_string(instance->horizonSteps()) + " steps");
        EXPECT_EQ(instance->earliestArrivalStep(0), 0);
        EXPECT_EQ(instance->completionLowerBound(), 1);
        const auto result = optimizeSchedule(*instance);
        EXPECT_EQ(result.verdict, OptimizeVerdict::Feasible) << toString(result.verdict);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.completionLowerBound, 1);
        EXPECT_EQ(result.completionSteps, 1);
        EXPECT_TRUE(validateSolution(*instance, *result.solution).empty());
    }
}

}  // namespace
}  // namespace etcs::core
