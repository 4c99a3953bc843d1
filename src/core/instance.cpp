#include "core/instance.hpp"

#include <algorithm>
#include <new>
#include <string>

namespace etcs::core {

Instance::Instance(const Network& network, const TrainSet& trains, const Schedule& schedule,
                   Resolution resolution)
    : network_(&network),
      trains_(&trains),
      schedule_(&schedule),
      graph_(std::make_unique<SegmentGraph>(network, resolution)),
      resolution_(resolution) {
    rail::DiscreteSchedule discrete = rail::discretize(*graph_, trains, schedule);
    ETCS_REQUIRE_MSG(discrete.horizonSteps > 0, "schedule horizon must be positive");
    horizonSteps_ = discrete.horizonSteps;

    for (const DiscreteRun& d : discrete.runs) {
        const std::string& name = trains.train(d.train).name;
        if (d.speedSegments < 1) {
            throw InputError("train " + name +
                             " cannot move at this resolution (speed rounds to zero "
                             "segments per step); refine r_t or coarsen r_s");
        }
        if (d.departureStep >= horizonSteps_) {
            throw InputError("train " + name + " departs after the scenario horizon");
        }
        int lastStep = d.departureStep;
        for (const DiscreteStop& stop : d.stops) {
            if (!stop.arrivalStep) {
                continue;
            }
            if (*stop.arrivalStep < lastStep) {
                throw InputError("train " + name +
                                 " has a stop scheduled before its previous stop");
            }
            if (*stop.arrivalStep >= horizonSteps_) {
                throw InputError("train " + name +
                                 " has a stop scheduled after the scenario horizon");
            }
            lastStep = *stop.arrivalStep;
        }
        ETCS_REQUIRE_MSG(!d.stops.empty(), "run without stops");
    }
    runs_ = std::move(discrete.runs);

    // All-pairs hop distances, one BFS row per segment (graphs here are
    // small; the encoder queries distances heavily for its reachability
    // cones). A fine r_s on a long line makes the table too large to hold.
    const std::size_t n = graph_->numSegments();
    try {
        distance_.resize(n * n);
    } catch (const std::bad_alloc&) {
        throw InputError("the distance table of " + std::to_string(n) +
                         " segments does not fit in memory; coarsen r_s");
    }
    for (std::size_t s = 0; s < n; ++s) {
        graph_->distancesFrom(SegmentId(s), std::span(distance_).subspan(s * n, n));
    }
}

int Instance::segmentDistance(SegmentId a, SegmentId b) const {
    return distance_[a.get() * graph_->numSegments() + b.get()];
}

int Instance::earliestArrivalStep(std::size_t run) const {
    const DiscreteRun& r = runs_.at(run);
    const int travel = segmentDistance(r.originSegment, r.destination().segment);
    return r.departureStep + rail::travelLowerBound(travel, r.lengthSegments, r.speedSegments);
}

int Instance::completionLowerBound() const {
    int bound = 1;
    for (std::size_t run = 0; run < runs_.size(); ++run) {
        bound = std::max(bound, earliestArrivalStep(run) + 1);
    }
    return bound;
}

}  // namespace etcs::core
