#include "core/instance.hpp"

#include <algorithm>
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

    // One origin-destination distance per run bounds its arrival.
    earliestArrival_.reserve(runs_.size());
    for (const DiscreteRun& r : runs_) {
        const int travel = graph_->distance(r.originSegment, r.destination().segment);
        earliestArrival_.push_back(
            r.departureStep +
            rail::travelLowerBound(travel, r.lengthSegments, r.speedSegments));
    }
}

int Instance::completionLowerBound() const {
    int bound = 1;
    for (std::size_t run = 0; run < runs_.size(); ++run) {
        bound = std::max(bound, earliestArrivalStep(run) + 1);
    }
    return bound;
}

}  // namespace etcs::core
