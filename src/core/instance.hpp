/// \file instance.hpp
/// A discretized problem instance: network, trains and schedule brought to
/// the common (r_s, r_t) grid of paper Sec. III-A.
///
/// The instance owns the segment graph and the per-run discrete data every
/// downstream component (encoder, simulator glue, validator) works with. It
/// holds nothing quadratic in the segment count: hop distances come from the
/// graph's BFS rows and neighbourhoods where they are needed. The grid
/// mapping and the travel bound are the railway layer's
/// (railway/discretize.hpp); the instance rejects the runs it cannot encode.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "railway/discretize.hpp"
#include "railway/network.hpp"
#include "railway/schedule.hpp"
#include "railway/segment_graph.hpp"
#include "railway/train.hpp"

namespace etcs::core {

using rail::DiscreteRun;
using rail::DiscreteStop;
using rail::Network;
using rail::Schedule;
using rail::SegmentGraph;
using rail::TrainRun;
using rail::TrainSet;

/// The discretized scenario. Immutable after construction.
class Instance {
public:
    /// Discretize. Throws InputError when a train cannot move at this
    /// resolution (speed rounds down to zero segments per step) or when a
    /// run's timing is inconsistent (arrival before departure).
    ///
    /// The instance keeps references to `network`, `trains` and `schedule`;
    /// the caller must keep them alive for the instance's lifetime.
    Instance(const Network& network, const TrainSet& trains, const Schedule& schedule,
             Resolution resolution);
    /// Temporaries would dangle, so they do not compile. (Two or more make
    /// these overloads ambiguous, which does not compile either.)
    Instance(const Network&&, const TrainSet&, const Schedule&, Resolution) = delete;
    Instance(const Network&, const TrainSet&&, const Schedule&, Resolution) = delete;
    Instance(const Network&, const TrainSet&, const Schedule&&, Resolution) = delete;

    [[nodiscard]] const Network& network() const noexcept { return *network_; }
    [[nodiscard]] const TrainSet& trains() const noexcept { return *trains_; }
    [[nodiscard]] const Schedule& schedule() const noexcept { return *schedule_; }
    [[nodiscard]] const SegmentGraph& graph() const noexcept { return *graph_; }
    [[nodiscard]] Resolution resolution() const noexcept { return resolution_; }

    /// Number of time steps t_0 .. t_{H-1} under consideration.
    [[nodiscard]] int horizonSteps() const noexcept { return horizonSteps_; }

    [[nodiscard]] std::span<const DiscreteRun> runs() const noexcept { return runs_; }
    [[nodiscard]] std::size_t numRuns() const noexcept { return runs_.size(); }

    /// Earliest step at which run `run` could reach its destination: its
    /// departure plus rail::travelLowerBound of the origin-destination
    /// distance (computed at construction).
    [[nodiscard]] int earliestArrivalStep(std::size_t run) const {
        return earliestArrival_.at(run);
    }

    /// Earliest step at which all runs could possibly be done, each one step
    /// after its earliest arrival: the lower bound of the completion-time
    /// search.
    [[nodiscard]] int completionLowerBound() const;

private:
    const Network* network_;
    const TrainSet* trains_;
    const Schedule* schedule_;
    std::unique_ptr<SegmentGraph> graph_;
    Resolution resolution_;
    int horizonSteps_ = 0;
    std::vector<DiscreteRun> runs_;
    std::vector<int> earliestArrival_;  // per run
};

}  // namespace etcs::core
