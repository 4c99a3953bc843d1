// Train roster, schedule, and discretized-instance tests.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/instance.hpp"
#include "railway/discretize.hpp"
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

TEST(Discretize, TravelLowerBoundRounding) {
    EXPECT_EQ(rail::travelLowerBound(0, 1, 1), 0);
    EXPECT_EQ(rail::travelLowerBound(5, 1, 1), 5);
    EXPECT_EQ(rail::travelLowerBound(5, 1, 2), 3);  // ceil(5 / 2)
    EXPECT_EQ(rail::travelLowerBound(5, 3, 2), 2);  // body slack: ceil((5 - 2) / 2)
    EXPECT_EQ(rail::travelLowerBound(1, 4, 1), 0);  // the body already covers it
}

TEST(Discretize, MapsTimesOntoStepsWithoutValidating) {
    const auto study = studies::runningExample();
    const rail::SegmentGraph graph(study.network, study.resolution);  // r_t = 30 s
    rail::Schedule s;
    TrainRun run;
    run.train = TrainId(1u);  // 700 m: 2 segments
    run.origin = StationId(0u);
    run.departure = Seconds(150);
    run.stops.push_back(TimedStop{StationId(2u), Seconds(60), Seconds(31)});  // before dep
    run.stops.push_back(TimedStop{StationId(1u), std::nullopt, Seconds(30)});
    s.addRun(run);
    s.setHorizon(Seconds(299));

    const rail::DiscreteSchedule d = rail::discretize(graph, study.trains, s);
    EXPECT_EQ(d.horizonSteps, 10);  // floor(299 / 30) + 1
    ASSERT_EQ(d.runs.size(), 1u);
    const rail::DiscreteRun& r = d.runs[0];
    EXPECT_EQ(r.train, TrainId(1u));
    EXPECT_EQ(r.originSegment, graph.segmentOfStation(StationId(0u)));
    EXPECT_EQ(r.departureStep, 5);
    EXPECT_EQ(r.lengthSegments, 2);
    EXPECT_EQ(r.speedSegments, study.trains.train(TrainId(1u)).speedSegments(study.resolution));
    ASSERT_EQ(r.stops.size(), 2u);
    EXPECT_EQ(r.stops[0].station, StationId(2u));
    EXPECT_EQ(r.stops[0].segment, graph.segmentOfStation(StationId(2u)));
    EXPECT_EQ(r.stops[0].arrivalStep, 2);  // kept: rejecting it is the caller's call
    EXPECT_EQ(r.stops[0].dwellSteps, 2);   // ceil(31 / 30)
    EXPECT_FALSE(r.stops[1].arrivalStep.has_value());
    EXPECT_EQ(r.stops[1].dwellSteps, 1);
    EXPECT_EQ(&r.destination(), &r.stops[1]);

    rail::Schedule empty;
    EXPECT_EQ(rail::discretize(graph, study.trains, empty).horizonSteps, 0);
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
