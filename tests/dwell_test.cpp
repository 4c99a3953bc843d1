// Dwell-time tests: minimum standing times at stops, across encoder,
// validator, instance discretization and file I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "railway/io.hpp"
#include "studies/studies.hpp"
#include "support/oracle_view.hpp"

namespace etcs::core {
namespace {

constexpr Resolution kRes{Meters(500), Seconds(30)};

/// Single 6-segment line with stations at both ends and in the middle.
struct DwellWorld {
    rail::Network network{"dwell"};
    rail::TrainSet trains;
    TrainId train;

    DwellWorld() {
        const auto a = network.addNode("A");
        const auto b = network.addNode("B");
        const auto t = network.addTrack("t", a, b, Meters(3000));
        network.addTtd("T", {t});
        network.addStation("StA", t, Meters(0));
        network.addStation("StMid", t, Meters(1400));
        network.addStation("StB", t, Meters(3000));
        train = trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    }

    [[nodiscard]] rail::TrainRun run(std::optional<int> midArr, int midDwellSteps,
                                     std::optional<int> endArr) const {
        rail::TrainRun r;
        r.train = train;
        r.origin = *network.findStation("StA");
        r.departure = Seconds(0);
        rail::TimedStop mid{*network.findStation("StMid"),
                            midArr ? std::optional(Seconds(*midArr * 30)) : std::nullopt,
                            Seconds(midDwellSteps * 30)};
        rail::TimedStop end{*network.findStation("StB"),
                            endArr ? std::optional(Seconds(*endArr * 30)) : std::nullopt};
        r.stops = {mid, end};
        return r;
    }
};

TEST(Dwell, InstanceDiscretizesDwellSteps) {
    DwellWorld w;
    rail::Schedule s;
    s.addRun(w.run(3, 2, 10));
    const Instance instance(w.network, w.trains, s, kRes);
    EXPECT_EQ(instance.runs()[0].stops[0].dwellSteps, 2);
    EXPECT_EQ(instance.runs()[0].stops[1].dwellSteps, 1);  // default
}

TEST(Dwell, PinnedStopWithDwellHoldsPosition) {
    DwellWorld w;
    rail::Schedule s;
    s.addRun(w.run(3, 3, 10));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto result = verifySchedule(instance, VssLayout::finest(instance.graph()));
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(validateSolution(instance, *result.solution).empty());
    const SegmentId mid = instance.graph().segmentOfStation(*w.network.findStation("StMid"));
    for (int step = 3; step < 6; ++step) {
        const auto& occupied = result.solution->traces[0].occupied[
            static_cast<std::size_t>(step)];
        EXPECT_NE(std::find(occupied.begin(), occupied.end(), mid), occupied.end())
            << "step " << step;
    }
}

TEST(Dwell, DwellPushesOutTheMinimumArrival) {
    DwellWorld w;
    // Trip A->Mid (2 segments -> 1 step at v=2) + Mid->B (3 segments -> 2
    // steps). Mid is pinned at step 1; a d-step dwell keeps the train at Mid
    // through step 1+d-1, so the earliest B arrival is 1 + (d-1) + 2.
    for (const auto& [dwellSteps, endArr, expectFeasible] :
         {std::tuple{1, 3, true}, {3, 4, false}, {3, 5, true}, {3, 6, true}}) {
        rail::Schedule s;
        s.addRun(w.run(1, dwellSteps, endArr));
        const Instance instance(w.network, w.trains, s, kRes);
        const auto result = verifySchedule(instance, VssLayout::finest(instance.graph()));
        EXPECT_EQ(result.feasible, expectFeasible)
            << "dwell=" << dwellSteps << " arr=" << endArr;
        if (result.feasible) {
            EXPECT_TRUE(validateSolution(instance, *result.solution).empty());
        }
    }
}

TEST(Dwell, OpenStopWithDwellInOptimization) {
    DwellWorld w;
    auto optimize = [&](int dwellSteps) {
        rail::Schedule s;
        s.addRun(w.run(std::nullopt, dwellSteps, std::nullopt));
        s.setHorizon(Seconds(12 * 30));
        const Instance instance(w.network, w.trains, s, kRes);
        const auto result = optimizeSchedule(instance);
        EXPECT_TRUE(result.feasible);
        if (result.solution) {
            EXPECT_TRUE(validateSolution(instance, *result.solution).empty());
        }
        return result.completionSteps;
    };
    // With a 3-step dwell: reach Mid at 1, stand through 3, reach B at 5,
    // done at 6. Without dwell the stop is a drive-through: done at 4.
    EXPECT_EQ(optimize(3), 6);
    EXPECT_EQ(optimize(1), 4);
}

TEST(Dwell, ValidatorCatchesShortenedDwell) {
    DwellWorld w;
    rail::Schedule s;
    s.addRun(w.run(3, 3, 10));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto result = verifySchedule(instance, VssLayout::finest(instance.graph()));
    ASSERT_TRUE(result.feasible);
    Solution corrupted = *result.solution;
    // Remove the middle step of the dwell window.
    const SegmentId mid = instance.graph().segmentOfStation(*w.network.findStation("StMid"));
    auto& occupied = corrupted.traces[0].occupied[4];
    occupied.erase(std::remove(occupied.begin(), occupied.end(), mid), occupied.end());
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_FALSE(violations.empty());
}

/// Regression (a validator gap that sim::checkTimeline, the independent
/// acceptance checker, exposed): validateSolution and sim::checkTimeline
/// must accept exactly the same timelines, in particular on release/dwell
/// boundaries. Both sides of each case are asserted so an off-by-one on
/// either checker fails the test.
void expectBothCheckersAgree(const Instance& instance, const Solution& solution,
                             bool accepted, const char* what) {
    const auto validator = validateSolution(instance, solution);
    const auto oracle = test::checkWithOracle(instance, solution);
    EXPECT_EQ(validator.empty(), accepted) << what << ": validator";
    EXPECT_EQ(oracle.empty(), accepted) << what << ": oracle";
}

TEST(Dwell, CheckersAgreeOnDwellAtDeadlineBoundary) {
    // One train, one open destination stop with a 3-step dwell; the horizon
    // leaves exactly enough room for a dwell window ending at the last step.
    DwellWorld w;
    rail::TrainRun r;
    r.train = w.train;
    r.origin = *w.network.findStation("StA");
    r.departure = Seconds(0);
    r.stops = {rail::TimedStop{*w.network.findStation("StB"), std::nullopt,
                               Seconds(3 * 30)}};
    rail::Schedule s;
    s.addRun(r);
    s.setHorizon(Seconds(6 * 30));
    const Instance instance(w.network, w.trains, s, kRes);
    const int horizon = instance.horizonSteps();
    ASSERT_GE(horizon, 6);
    const SegmentId dest =
        instance.graph().segmentOfStation(*w.network.findStation("StB"));
    ASSERT_EQ(instance.runs()[0].stops.back().dwellSteps, 3);

    // v = 2 segments/step: 0 -> 2 -> 4 -> 5, then dwell at the destination
    // through the last three steps — the window closes exactly at the
    // deadline, which both checkers must accept.
    Solution atDeadline{VssLayout::finest(instance.graph()), {}, horizon, 0};
    atDeadline.traces.resize(1);
    auto& occupied = atDeadline.traces[0].occupied;
    occupied.assign(static_cast<std::size_t>(horizon), {});
    occupied[0] = {SegmentId(0u)};
    occupied[1] = {SegmentId(2u)};
    occupied[2] = {SegmentId(4u)};
    for (int t = 3; t < horizon; ++t) {
        // Wait just short of the destination so the 3-step dwell window ends
        // exactly at the last step of the horizon.
        occupied[static_cast<std::size_t>(t)] =
            t >= horizon - 3 ? std::vector<SegmentId>{dest}
                             : std::vector<SegmentId>{SegmentId(4u)};
    }
    expectBothCheckersAgree(instance, atDeadline, true, "dwell ends at deadline");

    // One step short: leaving at the last step cuts the dwell to 2 < 3.
    Solution oneShort = atDeadline;
    oneShort.traces[0].occupied.back().clear();
    // (The release itself is fine — the train leaves from its destination.)
    expectBothCheckersAgree(instance, oneShort, false, "dwell one step short");
}

TEST(Dwell, CheckersAgreeOnReleaseBoundary) {
    // One train, open mid + destination stops, roomy horizon.
    DwellWorld w;
    rail::Schedule s;
    s.addRun(w.run(std::nullopt, 1, std::nullopt));
    s.setHorizon(Seconds(10 * 30));
    const Instance instance(w.network, w.trains, s, kRes);
    const int horizon = instance.horizonSteps();
    ASSERT_GE(horizon, 7);
    const SegmentId mid =
        instance.graph().segmentOfStation(*w.network.findStation("StMid"));
    const SegmentId dest =
        instance.graph().segmentOfStation(*w.network.findStation("StB"));

    const auto timelineWith = [&](std::vector<SegmentId> step4) {
        Solution solution{VssLayout::finest(instance.graph()), {}, horizon, 0};
        solution.traces.resize(1);
        auto& occupied = solution.traces[0].occupied;
        occupied.assign(static_cast<std::size_t>(horizon), {});
        occupied[0] = {SegmentId(0u)};
        occupied[1] = {mid};
        occupied[2] = {SegmentId(4u)};
        occupied[3] = {dest};
        occupied[4] = std::move(step4);
        return solution;
    };

    // Release one step after the destination dwell ends: accepted by both.
    expectBothCheckersAgree(instance, timelineWith({}), true,
                            "release right after dwell");
    // Backing away from the destination and then vanishing releases the
    // claimed sections away from the destination: rejected by both. (The
    // validator used to accept this — the stop windows are all honoured —
    // which is exactly the gap sim::checkTimeline exposed.)
    expectBothCheckersAgree(instance, timelineWith({SegmentId(3u)}), false,
                            "release away from destination");
}

TEST(Dwell, ScenarioIoRoundTripsDwell) {
    DwellWorld w;
    std::istringstream in(
        "train ICE 120 100\n"
        "run ICE from StA dep 0:00 via StMid arr 0:02 dwell 0:01:30 to StB arr 0:06\n");
    const rail::Scenario scenario = rail::readScenario(in, w.network);
    ASSERT_EQ(scenario.schedule.runs()[0].stops.size(), 2u);
    EXPECT_EQ(scenario.schedule.runs()[0].stops[0].dwell.count(), 90);
    std::ostringstream out;
    rail::writeScenario(out, scenario, w.network);
    EXPECT_NE(out.str().find("dwell 0:01:30"), std::string::npos);
    std::istringstream in2(out.str());
    const rail::Scenario reparsed = rail::readScenario(in2, w.network);
    EXPECT_EQ(reparsed.schedule.runs()[0].stops[0].dwell.count(), 90);
}

}  // namespace
}  // namespace etcs::core
