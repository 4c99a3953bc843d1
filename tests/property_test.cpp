// Cross-cutting property tests:
//  * every decoded solution passes the independent validator,
//  * SAT results are consistent with the greedy simulator oracle,
//  * layout refinement is monotone (adding borders never hurts),
//  * tightening the horizon is monotone for the optimizer,
//  * the completion-time search returns the true optimum.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cnf/backend.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "sim/simulator.hpp"
#include "studies/studies.hpp"
#include "support/single_train_line.hpp"

namespace etcs::core {
namespace {

using CorridorCase = std::tuple<int, int>;  // (stations, trains)

class CorridorPropertyTest : public ::testing::TestWithParam<CorridorCase> {
protected:
    studies::CaseStudy study = studies::corridor(std::get<0>(GetParam()),
                                                 std::get<1>(GetParam()),
                                                 Meters::fromKilometers(2.0),
                                                 Resolution{Meters(500), Seconds(60)});
};

TEST_P(CorridorPropertyTest, DecodedSolutionsAlwaysValidate) {
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const auto generation = generateLayout(timed);
    if (generation.feasible) {
        EXPECT_TRUE(validateSolution(timed, *generation.solution).empty());
    }
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    const auto optimization = optimizeSchedule(open);
    if (optimization.feasible) {
        EXPECT_TRUE(validateSolution(open, *optimization.solution).empty());
    }
}

TEST_P(CorridorPropertyTest, LayoutRefinementIsMonotone) {
    // If the schedule works on some layout, it also works on any refinement
    // of that layout (more borders can only decouple trains).
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const auto generation = generateLayout(timed);
    if (!generation.feasible) {
        GTEST_SKIP() << "instance infeasible even with free layout";
    }
    VssLayout refined = generation.solution->layout;
    // Raise every remaining candidate border.
    for (std::size_t n = 0; n < timed.graph().numNodes(); ++n) {
        if (!timed.graph().node(SegNodeId(n)).fixedBorder) {
            refined.setBorder(SegNodeId(n), true);
        }
    }
    const auto verification = verifySchedule(timed, refined);
    EXPECT_TRUE(verification.feasible);
}

TEST_P(CorridorPropertyTest, OptimizerIsMonotoneInHorizon) {
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    const auto base = optimizeSchedule(open);
    if (!base.feasible) {
        GTEST_SKIP() << "infeasible within the base horizon";
    }
    // Extending the horizon must not worsen the optimum.
    rail::Schedule extended;
    for (const auto& run : study.openSchedule.runs()) {
        extended.addRun(run);
    }
    extended.setHorizon(Seconds(study.openSchedule.horizon().count() +
                                4 * study.resolution.temporal.count()));
    const Instance larger(study.network, study.trains, extended, study.resolution);
    const auto more = optimizeSchedule(larger);
    ASSERT_TRUE(more.feasible);
    EXPECT_LE(more.completionSteps, base.completionSteps);
}

TEST_P(CorridorPropertyTest, SimulatorWitnessImpliesSat) {
    // If the greedy simulator completes all routes on the finest layout
    // within the horizon, the SAT optimizer must also find a plan that is at
    // least as fast. The synchronous simulator is at least as strict as the
    // encoding (exclusivity, one-step headway, no pass-through), so a
    // completed simulation always has a SAT counterpart; gen_fuzz_test
    // additionally validates the simulated timeline itself as a solution.
    //
    // The corridor's alternating trains meet head-on on the single track,
    // where the greedy simulation deadlocks, so the property runs on the
    // eastbound half of corridor(s, 2t): t trains in one direction on the
    // same network, departures staggered by the wave gap.
    const auto [stations, trains] = GetParam();
    const studies::CaseStudy both =
        studies::corridor(stations, 2 * trains, Meters::fromKilometers(2.0), study.resolution);
    rail::Schedule eastbound;
    for (std::size_t i = 0; i < both.openSchedule.size(); i += 2) {
        eastbound.addRun(both.openSchedule.runs()[i]);
    }
    eastbound.setHorizon(both.openSchedule.horizon());
    const Instance open(both.network, both.trains, eastbound, both.resolution);
    const auto& graph = open.graph();
    std::vector<bool> allBorders(graph.numNodes(), true);
    const sim::Simulator simulator(graph, allBorders);
    std::vector<sim::SimTrain> simTrains;
    for (const auto& run : open.runs()) {
        sim::SimTrain t;
        t.train = run.train;
        t.route = graph.shortestPath(run.originSegment, run.destination().segment);
        t.departureStep = run.departureStep;
        t.lengthSegments = run.lengthSegments;
        t.speedSegments = run.speedSegments;
        simTrains.push_back(std::move(t));
    }
    const auto simResult = simulator.run(simTrains, open.horizonSteps() - 1);
    ASSERT_TRUE(simResult.completed) << "same-direction trains must not deadlock";
    const auto optimization = optimizeSchedule(open);
    ASSERT_TRUE(optimization.feasible)
        << "simulator found a witness but the optimizer reported infeasible";
    EXPECT_LE(optimization.completionSteps, simResult.stepsSimulated);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CorridorPropertyTest,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 3)),
                         [](const ::testing::TestParamInfo<CorridorCase>& info) {
                             return "s" + std::to_string(std::get<0>(info.param)) + "_t" +
                                    std::to_string(std::get<1>(info.param));
                         });

TEST(Property, GenerationOptimumNeverExceedsFinestLayoutSections) {
    const auto study = studies::runningExample();
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    const auto finest = VssLayout::finest(timed.graph());
    EXPECT_LE(generation.sectionCount, finest.sectionCount(timed.graph()));
}

TEST(Property, VerifyGenerateConsistency) {
    // generateLayout is feasible iff verification on the finest layout is
    // feasible (the finest layout dominates all layouts).
    for (int trains = 1; trains <= 3; ++trains) {
        const auto study = studies::corridor(3, trains, Meters::fromKilometers(2.0),
                                             Resolution{Meters(500), Seconds(60)});
        const Instance timed(study.network, study.trains, study.timedSchedule,
                             study.resolution);
        const auto finest = VssLayout::finest(timed.graph());
        const bool verifyFinest = verifySchedule(timed, finest).feasible;
        const bool generate = generateLayout(timed).feasible;
        EXPECT_EQ(verifyFinest, generate) << "trains=" << trains;
    }
}

/// The true optimum is the first step t >= 1 at which the done-all selector
/// is satisfiable on a fresh encoding. optimizeSchedule searches up from
/// Instance::completionLowerBound, so a bound above the optimum (one that
/// ignores how far a long train's body reaches) skips it.
TEST(Property, CompletionSearchFindsTheTrueOptimumOnSingleTrainLines) {
    int cases = 0;
    for (const std::int64_t trainMetres : {100, 250, 450, 650, 900}) {
        for (const std::int64_t lineMetres : {300, 500, 700, 1100, 1600}) {
            for (const std::int64_t kmh : {30, 60, 90}) {
                SCOPED_TRACE("train " + std::to_string(trainMetres) + " m, line " +
                             std::to_string(lineMetres) + " m, " + std::to_string(kmh) +
                             " km/h");
                const test::SingleTrainLine line(lineMetres, trainMetres, kmh,
                                                 Seconds::fromMinutes(10));
                const Instance instance(line.network, line.trains, line.schedule,
                                        line.kResolution);
                int optimum = -1;
                for (int t = 1; t < instance.horizonSteps() && optimum < 0; ++t) {
                    const auto backend = cnf::makeInternalBackend();
                    Encoder encoder(*backend, instance);
                    encoder.encode(nullptr);
                    const cnf::Literal doneAll[] = {encoder.doneAllLiteral(t)};
                    if (backend->solve(doneAll) == cnf::SolveStatus::Sat) {
                        optimum = t;
                    }
                }
                ASSERT_GE(optimum, 1);
                EXPECT_LE(instance.completionLowerBound(), optimum);
                const auto result = optimizeSchedule(instance);
                ASSERT_TRUE(result.feasible) << toString(result.verdict);
                EXPECT_EQ(result.completionSteps, optimum);
                EXPECT_TRUE(validateSolution(instance, *result.solution).empty());
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 75);
}

}  // namespace
}  // namespace etcs::core
