// Encoder behaviour on small hand-built instances: each constraint family
// is exercised in isolation as far as possible.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/validator.hpp"

namespace etcs::core {
namespace {

using rail::Network;
using rail::Schedule;
using rail::TimedStop;
using rail::TrainRun;
using rail::TrainSet;

constexpr Resolution kRes{Meters(500), Seconds(30)};

/// A single 6-segment, 3 km line in one TTD with stations at both ends.
struct LineWorld {
    Network network{"encline"};
    TrainSet trains;

    LineWorld() {
        const auto a = network.addNode("A");
        const auto b = network.addNode("B");
        const auto t = network.addTrack("t", a, b, Meters(3000));
        network.addTtd("T", {t});
        network.addStation("StA", t, Meters(0));
        network.addStation("StB", t, Meters(3000));
    }

    [[nodiscard]] TrainRun run(TrainId train, const char* from, const char* to, int depSteps,
                               std::optional<int> arrSteps) const {
        TrainRun r;
        r.train = train;
        r.origin = *network.findStation(from);
        r.departure = Seconds(depSteps * 30);
        r.stops.push_back(TimedStop{
            *network.findStation(to),
            arrSteps ? std::optional(Seconds(*arrSteps * 30)) : std::nullopt});
        return r;
    }
};

TEST(Encoder, SingleTrainFeasibleTrip) {
    LineWorld w;
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t, "StA", "StB", 0, 8));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    const VssLayout layout(instance.graph());
    encoder.encode(&layout);
    ASSERT_EQ(backend->solve(), cnf::SolveStatus::Sat);
    const Solution solution = encoder.decode();
    EXPECT_TRUE(validateSolution(instance, solution).empty());
}

TEST(Encoder, MovementSpeedLimitMakesTightArrivalInfeasible) {
    LineWorld w;
    // 120 km/h = 2 segments/step, distance 5 -> at least 3 steps.
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule tooTight;
    tooTight.addRun(w.run(t, "StA", "StB", 0, 2));
    const Instance instance(w.network, w.trains, tooTight, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    const VssLayout layout(instance.graph());
    encoder.encode(&layout);
    EXPECT_EQ(backend->solve(), cnf::SolveStatus::Unsat);
}

TEST(Encoder, ExactMinimalTravelTimeIsFeasible) {
    LineWorld w;
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule justRight;
    justRight.addRun(w.run(t, "StA", "StB", 0, 3));  // ceil(5/2) = 3
    const Instance instance(w.network, w.trains, justRight, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    const VssLayout layout(instance.graph());
    encoder.encode(&layout);
    EXPECT_EQ(backend->solve(), cnf::SolveStatus::Sat);
}

TEST(Encoder, LongTrainOccupiesChain) {
    LineWorld w;
    const auto t = w.trains.addTrain("Long", Speed::fromKmPerHour(120), Meters(1400));
    Schedule s;
    s.addRun(w.run(t, "StA", "StB", 0, 8));
    const Instance instance(w.network, w.trains, s, kRes);
    ASSERT_EQ(instance.runs()[0].lengthSegments, 3);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    const VssLayout layout(instance.graph());
    encoder.encode(&layout);
    ASSERT_EQ(backend->solve(), cnf::SolveStatus::Sat);
    const Solution solution = encoder.decode();
    EXPECT_TRUE(validateSolution(instance, solution).empty());
    for (int step = 0; step <= 8; ++step) {
        const auto& occupied = solution.traces[0].occupied[static_cast<std::size_t>(step)];
        if (!occupied.empty()) {
            EXPECT_EQ(occupied.size(), 3u) << "step " << step;
        }
    }
}

TEST(Encoder, TwoTrainsOneTtdSameTimeIsInfeasibleOnPureLayout) {
    LineWorld w;
    const auto t1 = w.trains.addTrain("T1", Speed::fromKmPerHour(120), Meters(100));
    const auto t2 = w.trains.addTrain("T2", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    // Both trains on the single-TTD line at overlapping times (same
    // direction, well separated in space -- still the same TTD).
    s.addRun(w.run(t1, "StA", "StB", 0, 8));
    s.addRun(w.run(t2, "StA", "StB", 4, 12));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    const VssLayout pure(instance.graph());
    encoder.encode(&pure);
    // T1 is still on the line at step 4 (it cannot have vanished: its pinned
    // arrival is step 8), so T2 cannot enter the single VSS.
    EXPECT_EQ(backend->solve(), cnf::SolveStatus::Unsat);
}

TEST(Encoder, TwoTrainsSeparatedByVirtualBorder) {
    LineWorld w;
    const auto t1 = w.trains.addTrain("T1", Speed::fromKmPerHour(120), Meters(100));
    const auto t2 = w.trains.addTrain("T2", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t1, "StA", "StB", 0, 8));
    s.addRun(w.run(t2, "StA", "StB", 4, 12));
    const Instance instance(w.network, w.trains, s, kRes);

    // Free layout: the generation task can place borders -> feasible.
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    ASSERT_EQ(backend->solve(), cnf::SolveStatus::Sat);
    const Solution solution = encoder.decode();
    EXPECT_TRUE(validateSolution(instance, solution).empty());
    EXPECT_GT(solution.sectionCount, 1);
}

TEST(Encoder, OppositeTrainsCannotPassOnSingleTrack) {
    LineWorld w;
    const auto t1 = w.trains.addTrain("T1", Speed::fromKmPerHour(120), Meters(100));
    const auto t2 = w.trains.addTrain("T2", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t1, "StA", "StB", 0, 10));
    s.addRun(w.run(t2, "StB", "StA", 0, 10));
    const Instance instance(w.network, w.trains, s, kRes);
    // Even with every border available, two opposing trains cannot swap
    // sides of a single track (C4, no pass-through).
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    EXPECT_EQ(backend->solve(), cnf::SolveStatus::Unsat);
}

TEST(Encoder, UnreachablePinnedStopYieldsUnsat) {
    LineWorld w;
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t, "StA", "StB", 5, 6));  // 1 step for 5 segments at v=2
    const Instance instance(w.network, w.trains, s, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    EXPECT_EQ(backend->solve(), cnf::SolveStatus::Unsat);
}

/// The reachability cones create fewer occupies variables than there are
/// (run, segment, step >= departure) cells. Window pruning is off so the
/// count isolates the cones (the window analysis subsumes them on this line).
TEST(Encoder, ConesShrinkTheFormula) {
    LineWorld w;
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t, "StA", "StB", 0, 5));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto backend = cnf::makeInternalBackend();
    EncoderOptions options;
    options.pruneUnreachable = false;
    Encoder encoder(*backend, instance, options);
    encoder.encode(nullptr);
    int cells = 0;
    for (const DiscreteRun& run : instance.runs()) {
        cells += static_cast<int>(instance.graph().numSegments()) *
                 (instance.horizonSteps() - run.departureStep);
    }
    const auto families = encoder.familyCounts();
    const auto occupies = std::find_if(families.begin(), families.end(), [](const auto& f) {
        return f.family == "occupies_vars";
    });
    ASSERT_NE(occupies, families.end());
    EXPECT_GT(occupies->variables, 0);
    EXPECT_LT(occupies->variables, cells);
}

TEST(Encoder, DoneAllLiteralForcesCompletion) {
    LineWorld w;
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t, "StA", "StB", 0, std::nullopt));
    s.setHorizon(Seconds(10 * 30));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    // Minimum: 3 steps of travel, done one step later.
    EXPECT_EQ(encoder.completionLowerBound(), 4);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(3)}), cnf::SolveStatus::Unsat);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(4)}), cnf::SolveStatus::Sat);
    EXPECT_EQ(backend->solve({encoder.doneAllLiteral(9)}), cnf::SolveStatus::Sat);
}

TEST(Encoder, EncodeTwiceIsRejected) {
    LineWorld w;
    const auto t = w.trains.addTrain("T", Speed::fromKmPerHour(120), Meters(100));
    Schedule s;
    s.addRun(w.run(t, "StA", "StB", 0, 8));
    const Instance instance(w.network, w.trains, s, kRes);
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    EXPECT_THROW(encoder.encode(nullptr), PreconditionError);
}

}  // namespace
}  // namespace etcs::core
