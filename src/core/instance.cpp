#include "core/instance.hpp"

#include <algorithm>
#include <deque>

namespace etcs::core {

Instance::Instance(const Network& network, const TrainSet& trains, const Schedule& schedule,
                   Resolution resolution)
    : network_(&network),
      trains_(&trains),
      schedule_(&schedule),
      graph_(std::make_unique<SegmentGraph>(network, resolution)),
      resolution_(resolution) {
    const Seconds horizon = schedule.horizon();
    ETCS_REQUIRE_MSG(horizon.count() > 0, "schedule horizon must be positive");
    horizonSteps_ = resolution.stepOf(horizon) + 1;

    for (const TrainRun& run : schedule.runs()) {
        const rail::Train& train = trains.train(run.train);
        DiscreteRun d;
        d.train = run.train;
        d.originSegment = graph_->segmentOfStation(run.origin);
        d.departureStep = resolution.stepOf(run.departure);
        d.lengthSegments = train.lengthSegments(resolution);
        d.speedSegments = train.speedSegments(resolution);
        if (d.speedSegments < 1) {
            throw InputError("train " + train.name +
                             " cannot move at this resolution (speed rounds to zero "
                             "segments per step); refine r_t or coarsen r_s");
        }
        if (d.departureStep >= horizonSteps_) {
            throw InputError("train " + train.name + " departs after the scenario horizon");
        }
        int lastStep = d.departureStep;
        for (const rail::TimedStop& stop : run.stops) {
            DiscreteStop ds;
            ds.station = stop.station;
            ds.segment = graph_->segmentOfStation(stop.station);
            if (stop.dwell.count() > 0) {
                // A dwell of up to one step is the implicit minimum (a train
                // always occupies its stop for at least one step).
                ds.dwellSteps = static_cast<int>(
                    (stop.dwell.count() + resolution.temporal.count() - 1) /
                    resolution.temporal.count());
                ds.dwellSteps = std::max(ds.dwellSteps, 1);
            }
            if (stop.arrival) {
                ds.arrivalStep = resolution.stepOf(*stop.arrival);
                if (*ds.arrivalStep < lastStep) {
                    throw InputError("train " + train.name +
                                     " has a stop scheduled before its previous stop");
                }
                if (*ds.arrivalStep >= horizonSteps_) {
                    throw InputError("train " + train.name +
                                     " has a stop scheduled after the scenario horizon");
                }
                lastStep = *ds.arrivalStep;
            }
            d.stops.push_back(ds);
        }
        ETCS_REQUIRE_MSG(!d.stops.empty(), "run without stops");
        runs_.push_back(std::move(d));
    }

    // All-pairs BFS over the segment adjacency (graphs here are small; the
    // encoder queries distances heavily for its reachability cones).
    const std::size_t n = graph_->numSegments();
    distance_.assign(n * n, -1);
    for (std::size_t s = 0; s < n; ++s) {
        std::deque<SegmentId> queue{SegmentId(s)};
        distance_[s * n + s] = 0;
        while (!queue.empty()) {
            const SegmentId current = queue.front();
            queue.pop_front();
            const int d = distance_[s * n + current.get()];
            const rail::Segment& cs = graph_->segment(current);
            for (SegNodeId end : {cs.a, cs.b}) {
                for (SegmentId next : graph_->segmentsAt(end)) {
                    if (distance_[s * n + next.get()] < 0) {
                        distance_[s * n + next.get()] = d + 1;
                        queue.push_back(next);
                    }
                }
            }
        }
    }
}

int Instance::segmentDistance(SegmentId a, SegmentId b) const {
    return distance_[a.get() * graph_->numSegments() + b.get()];
}

int Instance::earliestArrivalStep(std::size_t run) const {
    const DiscreteRun& r = runs_.at(run);
    const int travel = segmentDistance(r.originSegment, r.destination().segment);
    return r.departureStep + (travel + r.speedSegments - 1) / r.speedSegments;
}

int Instance::completionLowerBound() const {
    int bound = 1;
    for (std::size_t run = 0; run < runs_.size(); ++run) {
        bound = std::max(bound, earliestArrivalStep(run) + 1);
    }
    return bound;
}

}  // namespace etcs::core
