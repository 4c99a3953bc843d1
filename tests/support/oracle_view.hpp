/// \file oracle_view.hpp
/// One mapping from the core vocabulary (Instance, decoded Solution) to the
/// independent acceptance checker sim::checkTimeline (sim/check.hpp), shared
/// by the tests that hold core::validateSolution and the encoder's witnesses
/// against it (dwell_test, gen_fuzz_test).
#pragma once

#include <utility>
#include <vector>

#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "sim/check.hpp"

namespace etcs::test {

/// The instance's runs as the checker's trains.
inline std::vector<sim::CheckTrain> oracleView(const core::Instance& instance) {
    std::vector<sim::CheckTrain> trains;
    for (const core::DiscreteRun& r : instance.runs()) {
        sim::CheckTrain train;
        train.name = instance.trains().train(r.train).name;
        train.originSegment = r.originSegment;
        train.departureStep = r.departureStep;
        train.lengthSegments = r.lengthSegments;
        train.speedSegments = r.speedSegments;
        for (const core::DiscreteStop& stop : r.stops) {
            train.stops.push_back(sim::CheckStop{stop.segment, stop.arrivalStep,
                                                 stop.dwellSteps});
        }
        trains.push_back(std::move(train));
    }
    return trains;
}

/// sim::checkTimeline on a solution's layout and traces (empty = accepted).
inline std::vector<sim::TimelineViolation> checkWithOracle(const core::Instance& instance,
                                                           const core::Solution& solution) {
    sim::Timeline timeline;
    for (const core::RunTrace& trace : solution.traces) {
        timeline.push_back(trace.occupied);
    }
    return sim::checkTimeline(instance.graph(), solution.layout.flags(), oracleView(instance),
                              timeline);
}

}  // namespace etcs::test
