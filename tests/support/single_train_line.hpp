/// \file single_train_line.hpp
/// One train on a straight line, at r_s = 100 m and r_t = 60 s: track `s0`
/// (1 km), a plain line of `lineMetres`, then track `s1` (1 km), each in
/// its own TTD. Station A lies on `s0` at 900 m and station B on `s1` at
/// 100 m, so A and B are 1 + lineMetres / 100 + 1 segments apart. The
/// train departs A at 0:00 for B.
///
/// A long train covers part of that distance with its body before it
/// moves: at 900 m, 30 km/h and a 500 m line the train is 9 segments long,
/// advances 5 segments a step, and B is 7 hops from A, so its body already
/// covers B at departure. The completion-time tasks (tasks_test,
/// analysis_test, property_test) must see that.
#pragma once

#include <cstdint>
#include <optional>

#include "railway/network.hpp"
#include "railway/schedule.hpp"
#include "railway/train.hpp"
#include "util/units.hpp"

namespace etcs::test {

struct SingleTrainLine {
    static constexpr Resolution kResolution{Meters(100), Seconds(60)};

    rail::Network network{"single_train_line"};
    rail::TrainSet trains;
    rail::Schedule schedule;

    /// `arrival` pins B (open when nullopt); the horizon is set explicitly.
    SingleTrainLine(std::int64_t lineMetres, std::int64_t trainMetres, std::int64_t kmh,
                    Seconds horizon, std::optional<Seconds> arrival = std::nullopt) {
        const auto n0 = network.addNode("n0");
        const auto n1 = network.addNode("n1");
        const auto n2 = network.addNode("n2");
        const auto n3 = network.addNode("n3");
        const auto s0 = network.addTrack("s0", n0, n1, Meters(1000));
        const auto line = network.addTrack("line", n1, n2, Meters(lineMetres));
        const auto s1 = network.addTrack("s1", n2, n3, Meters(1000));
        network.addTtd("T0", {s0});
        network.addTtd("TL", {line});
        network.addTtd("T1", {s1});
        const auto a = network.addStation("A", s0, Meters(900));
        const auto b = network.addStation("B", s1, Meters(100));
        rail::TrainRun run;
        run.train = trains.addTrain("T", Speed::fromKmPerHour(kmh), Meters(trainMetres));
        run.origin = a;
        run.departure = Seconds(0);
        run.stops.push_back(rail::TimedStop{b, arrival});
        schedule.addRun(run);
        schedule.setHorizon(horizon);
    }
};

}  // namespace etcs::test
