// Validator tests: clean solutions pass; systematically corrupted solutions
// are caught with a matching violation message.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "studies/studies.hpp"

namespace etcs::core {
namespace {

struct ValidatorFixture : ::testing::Test {
    studies::CaseStudy study = studies::runningExample();
    Instance instance{study.network, study.trains, study.timedSchedule, study.resolution};
    Solution solution = [this] {
        const auto result = verifySchedule(instance, VssLayout::finest(instance.graph()));
        EXPECT_TRUE(result.feasible);
        return *result.solution;
    }();

    static bool anyViolationContains(const std::vector<std::string>& violations,
                                     const std::string& needle) {
        return std::any_of(violations.begin(), violations.end(), [&](const std::string& v) {
            return v.find(needle) != std::string::npos;
        });
    }
};

TEST_F(ValidatorFixture, CleanSolutionHasNoViolations) {
    EXPECT_TRUE(validateSolution(instance, solution).empty());
}

TEST_F(ValidatorFixture, DetectsOccupancyBeforeDeparture) {
    Solution corrupted = solution;
    // Train 3 departs at step 2; give it occupancy at step 0.
    corrupted.traces[2].occupied[0] = {instance.runs()[2].originSegment};
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "before its departure"));
}

TEST_F(ValidatorFixture, DetectsTeleportation) {
    Solution corrupted = solution;
    // Move train 1 to the far end of the network mid-journey.
    auto& occupied = corrupted.traces[0].occupied;
    for (std::size_t t = 1; t + 1 < occupied.size(); ++t) {
        if (!occupied[t].empty() && !occupied[t + 1].empty()) {
            const SegmentId here = occupied[t][0];
            // Find a segment farther than the train's speed.
            for (std::size_t s = 0; s < instance.graph().numSegments(); ++s) {
                if (instance.graph().distance(here, SegmentId(s)) >
                    instance.runs()[0].speedSegments) {
                    occupied[t + 1] = {SegmentId(s)};
                    const auto violations = validateSolution(instance, corrupted);
                    EXPECT_TRUE(anyViolationContains(violations, "exceeds its speed"));
                    return;
                }
            }
        }
    }
    FAIL() << "fixture should contain a moving train";
}

TEST_F(ValidatorFixture, DetectsWrongTrainLength) {
    Solution corrupted = solution;
    // Train 2 is two segments long; truncate one step to a single segment.
    auto& occupied = corrupted.traces[1].occupied;
    for (auto& step : occupied) {
        if (step.size() == 2) {
            step.pop_back();
            break;
        }
    }
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "expected 2"));
}

TEST_F(ValidatorFixture, DetectsNonChainOccupancy) {
    Solution corrupted = solution;
    // Give train 2 two non-adjacent segments.
    auto& occupied = corrupted.traces[1].occupied;
    for (auto& step : occupied) {
        if (step.size() == 2) {
            // entry[0] (id 0) and exit[3] (id 10) are far apart.
            step = {SegmentId(0u), SegmentId(10u)};
            break;
        }
    }
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "chain"));
}

TEST_F(ValidatorFixture, DetectsSectionSharing) {
    // Rebuild the same movement on the PURE layout: trains that were in
    // separate virtual sections now share TTDs.
    Solution corrupted = solution;
    corrupted.layout = VssLayout(instance.graph());
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "exclusivity"));
}

TEST_F(ValidatorFixture, DetectsMissedPinnedStop) {
    Solution corrupted = solution;
    // Erase train 1's occupancy at its pinned arrival step (step 9).
    corrupted.traces[0].occupied[9].clear();
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "pinned stop") ||
                anyViolationContains(violations, "reappears"));
}

TEST_F(ValidatorFixture, DetectsVanishAndReappear) {
    Solution corrupted = solution;
    auto& occupied = corrupted.traces[0].occupied;
    // Find two consecutive present steps and clear the first of them.
    for (std::size_t t = 1; t + 1 < occupied.size(); ++t) {
        if (!occupied[t - 1].empty() && !occupied[t].empty() && !occupied[t + 1].empty()) {
            occupied[t].clear();
            break;
        }
    }
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "reappears"));
}

TEST_F(ValidatorFixture, DetectsMissingTrain) {
    Solution corrupted = solution;
    for (auto& step : corrupted.traces[3].occupied) {
        step.clear();
    }
    const auto violations = validateSolution(instance, corrupted);
    EXPECT_TRUE(anyViolationContains(violations, "never appears"));
}

TEST_F(ValidatorFixture, DetectsPassThrough) {
    // Hand-build a two-train head-on swap on a 2-segment line.
    rail::Network network("swap");
    const auto a = network.addNode("A");
    const auto b = network.addNode("B");
    const auto t = network.addTrack("t", a, b, Meters(1000));
    network.addTtd("T", {t});
    network.addStation("SA", t, Meters(0));
    network.addStation("SB", t, Meters(1000));
    rail::TrainSet trains;
    trains.addTrain("T1", Speed::fromKmPerHour(120), Meters(100));
    trains.addTrain("T2", Speed::fromKmPerHour(120), Meters(100));
    rail::Schedule schedule;
    for (int i = 0; i < 2; ++i) {
        rail::TrainRun run;
        run.train = TrainId(static_cast<std::size_t>(i));
        run.origin = StationId(static_cast<std::size_t>(i));
        run.departure = Seconds(0);
        run.stops.push_back(rail::TimedStop{StationId(static_cast<std::size_t>(1 - i)),
                                            Seconds(30)});
        schedule.addRun(run);
    }
    const Instance swapInstance(network, trains, schedule, Resolution{Meters(500), Seconds(30)});

    Solution swap{VssLayout::finest(swapInstance.graph()), {}, 2, 2};
    swap.traces.resize(2);
    swap.traces[0].occupied = {{SegmentId(0u)}, {SegmentId(1u)}};
    swap.traces[1].occupied = {{SegmentId(1u)}, {SegmentId(0u)}};
    const auto violations = validateSolution(swapInstance, swap);
    EXPECT_TRUE(anyViolationContains(violations, "pass-through"));
}

}  // namespace
}  // namespace etcs::core
