// Train roster, schedule, and discretized-instance tests.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/instance.hpp"
#include "railway/schedule.hpp"
#include "railway/train.hpp"
#include "studies/studies.hpp"

namespace etcs {
namespace {

using rail::Schedule;
using rail::TimedStop;
using rail::Train;
using rail::TrainRun;
using rail::TrainSet;

TEST(TrainSet, AddAndLookup) {
    TrainSet trains;
    const TrainId id = trains.addTrain("ICE", Speed::fromKmPerHour(180), Meters(400));
    EXPECT_EQ(trains.size(), 1u);
    EXPECT_EQ(trains.train(id).name, "ICE");
    EXPECT_EQ(trains.findTrain("ICE"), id);
    EXPECT_FALSE(trains.findTrain("nope").has_value());
}

TEST(TrainSet, RejectsDuplicatesAndInvalidData) {
    TrainSet trains;
    trains.addTrain("A", Speed::fromKmPerHour(100), Meters(100));
    EXPECT_THROW(trains.addTrain("A", Speed::fromKmPerHour(100), Meters(100)),
                 PreconditionError);
    EXPECT_THROW(trains.addTrain("B", Speed::fromKmPerHour(0), Meters(100)),
                 PreconditionError);
    EXPECT_THROW(trains.addTrain("C", Speed::fromKmPerHour(100), Meters(0)),
                 PreconditionError);
}

TEST(Train, DiscreteQuantities) {
    const Train t{"X", Speed::fromKmPerHour(120), Meters(700)};
    const Resolution r{Meters(500), Seconds(30)};
    EXPECT_EQ(t.lengthSegments(r), 2);
    EXPECT_EQ(t.speedSegments(r), 2);
}

TEST(Schedule, HorizonFromArrivals) {
    Schedule s;
    TrainRun run;
    run.train = TrainId(0u);
    run.origin = StationId(0u);
    run.departure = Seconds(0);
    run.stops.push_back(TimedStop{StationId(1u), Seconds(300)});
    s.addRun(run);
    EXPECT_EQ(s.horizon().count(), 300);
    EXPECT_TRUE(s.fullyTimed());
}

TEST(Schedule, ExplicitHorizonWins) {
    Schedule s;
    TrainRun run;
    run.train = TrainId(0u);
    run.origin = StationId(0u);
    run.departure = Seconds(0);
    run.stops.push_back(TimedStop{StationId(1u), std::nullopt});
    s.addRun(run);
    EXPECT_FALSE(s.fullyTimed());
    s.setHorizon(Seconds(600));
    EXPECT_EQ(s.horizon().count(), 600);
}

TEST(Schedule, RejectsRunWithoutStops) {
    Schedule s;
    TrainRun run;
    run.train = TrainId(0u);
    run.origin = StationId(0u);
    EXPECT_THROW(s.addRun(run), PreconditionError);
}

TEST(Instance, DiscretizesRunningExample) {
    const auto study = studies::runningExample();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    EXPECT_EQ(instance.horizonSteps(), 11);  // 5 min at 30 s, arrival at step 10
    ASSERT_EQ(instance.numRuns(), 4u);
    // Fig. 1b, discretized.
    EXPECT_EQ(instance.runs()[0].departureStep, 0);
    EXPECT_EQ(*instance.runs()[0].destination().arrivalStep, 9);   // 0:04:30
    EXPECT_EQ(instance.runs()[1].lengthSegments, 2);               // 700 m
    EXPECT_EQ(*instance.runs()[1].destination().arrivalStep, 8);   // 0:04
    EXPECT_EQ(instance.runs()[2].departureStep, 2);                // 0:01
    EXPECT_EQ(instance.runs()[3].speedSegments, 3);                // 180 km/h
    EXPECT_EQ(*instance.runs()[3].destination().arrivalStep, 10);  // 0:05
}

// An Instance keeps pointers to its network, trains and schedule, so none of
// them may be a temporary, const or not, alone or together.
using core::Instance;
using rail::Network;
static_assert(std::is_constructible_v<Instance, const Network&, const TrainSet&,
                                      const Schedule&, Resolution>);
static_assert(std::is_constructible_v<Instance, Network&, TrainSet&, Schedule&, Resolution>);
static_assert(!std::is_constructible_v<Instance, Network, const TrainSet&, const Schedule&,
                                       Resolution>);
static_assert(!std::is_constructible_v<Instance, const Network&, TrainSet, const Schedule&,
                                       Resolution>);
static_assert(!std::is_constructible_v<Instance, const Network&, const TrainSet&, Schedule,
                                       Resolution>);
static_assert(!std::is_constructible_v<Instance, const Network, const TrainSet&,
                                       const Schedule&, Resolution>);
static_assert(!std::is_constructible_v<Instance, Network, TrainSet, Schedule, Resolution>);

TEST(Instance, SegmentDistanceIsSymmetricAndTriangular) {
    const auto study = studies::runningExample();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    const auto n = instance.graph().numSegments();
    for (std::size_t a = 0; a < n; ++a) {
        EXPECT_EQ(instance.segmentDistance(SegmentId(a), SegmentId(a)), 0);
        for (std::size_t b = 0; b < n; ++b) {
            EXPECT_EQ(instance.segmentDistance(SegmentId(a), SegmentId(b)),
                      instance.segmentDistance(SegmentId(b), SegmentId(a)));
            for (std::size_t c = 0; c < n; ++c) {
                EXPECT_LE(instance.segmentDistance(SegmentId(a), SegmentId(c)),
                          instance.segmentDistance(SegmentId(a), SegmentId(b)) +
                              instance.segmentDistance(SegmentId(b), SegmentId(c)));
            }
        }
    }
}

TEST(Instance, RejectsImmobileTrain) {
    const auto study = studies::runningExample();
    rail::TrainSet slowTrains;
    slowTrains.addTrain("Crawler", Speed::fromKmPerHour(10), Meters(100));
    rail::Schedule s;
    TrainRun run;
    run.train = TrainId(0u);
    run.origin = StationId(0u);
    run.departure = Seconds(0);
    run.stops.push_back(TimedStop{StationId(1u), Seconds(300)});
    s.addRun(run);
    // 10 km/h covers 83 m per 30 s step < 500 m resolution -> zero segments.
    EXPECT_THROW(core::Instance(study.network, slowTrains, s, study.resolution), InputError);
}

TEST(Instance, RejectsDepartureAfterHorizon) {
    const auto study = studies::runningExample();
    rail::Schedule s;
    TrainRun run;
    run.train = TrainId(0u);
    run.origin = StationId(0u);
    run.departure = Seconds(9999);
    run.stops.push_back(TimedStop{StationId(1u), std::nullopt});
    s.addRun(run);
    s.setHorizon(Seconds(300));
    EXPECT_THROW(core::Instance(study.network, study.trains, s, study.resolution), InputError);
}

TEST(Instance, RejectsStopBeforePreviousStop) {
    const auto study = studies::runningExample();
    rail::Schedule s;
    TrainRun run;
    run.train = TrainId(0u);
    run.origin = StationId(0u);
    run.departure = Seconds(120);
    run.stops.push_back(TimedStop{StationId(1u), Seconds(60)});  // arrives before departing
    s.addRun(run);
    EXPECT_THROW(core::Instance(study.network, study.trains, s, study.resolution), InputError);
}

}  // namespace
}  // namespace etcs
