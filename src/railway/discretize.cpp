#include "railway/discretize.hpp"

namespace etcs::rail {

DiscreteSchedule discretize(const SegmentGraph& graph, const TrainSet& trains,
                            const Schedule& schedule) {
    const Resolution resolution = graph.resolution();
    DiscreteSchedule result;
    const Seconds horizon = schedule.horizon();
    if (horizon.count() > 0) {
        result.horizonSteps = resolution.stepOf(horizon) + 1;
    }
    for (const TrainRun& run : schedule.runs()) {
        const Train& train = trains.train(run.train);
        DiscreteRun d;
        d.train = run.train;
        d.originSegment = graph.segmentOfStation(run.origin);
        d.departureStep = resolution.stepOf(run.departure);
        d.lengthSegments = train.lengthSegments(resolution);
        d.speedSegments = train.speedSegments(resolution);
        for (const TimedStop& stop : run.stops) {
            DiscreteStop ds;
            ds.station = stop.station;
            ds.segment = graph.segmentOfStation(stop.station);
            if (stop.arrival) {
                ds.arrivalStep = resolution.stepOf(*stop.arrival);
            }
            if (stop.dwell.count() > 0) {
                // A dwell of up to one step is the implicit minimum (a train
                // always occupies its stop for at least one step).
                const auto steps = (stop.dwell.count() + resolution.temporal.count() - 1) /
                                   resolution.temporal.count();
                ds.dwellSteps = std::max(static_cast<int>(steps), 1);
            }
            d.stops.push_back(ds);
        }
        result.runs.push_back(std::move(d));
    }
    return result;
}

}  // namespace etcs::rail
