/// \file discretize.hpp
/// The temporal half of the (r_s, r_t) grid of paper Sec. III-A: a schedule
/// brought onto the steps and segments of a SegmentGraph, and the shortest
/// travel bound on that grid.
///
/// Every consumer takes its steps and segments from here: core::Instance
/// (and through it the encoder and the tasks), the schedule linter and the
/// reachability analysis. discretize() validates nothing; each consumer
/// applies its own policy to defective runs (Instance throws, the schedule
/// linter reports L020..L027, the reachability analysis skips the run).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "railway/schedule.hpp"
#include "railway/segment_graph.hpp"
#include "railway/train.hpp"
#include "util/ids.hpp"

namespace etcs::rail {

/// A stop brought onto the discrete grid.
struct DiscreteStop {
    StationId station;
    SegmentId segment;               ///< segment containing the station point
    std::optional<int> arrivalStep;  ///< pinned arrival step, if timed
    int dwellSteps = 1;              ///< ceil(dwell / r_t), at least 1
};

/// One train's run on the discrete grid.
struct DiscreteRun {
    TrainId train;
    SegmentId originSegment;
    int departureStep = 0;
    std::vector<DiscreteStop> stops;  ///< back() is the destination
    int lengthSegments = 1;           ///< l*_tr = ceil(l_tr / r_s)
    int speedSegments = 1;            ///< floor(s_tr * r_t / r_s); 0 if it cannot move

    [[nodiscard]] const DiscreteStop& destination() const { return stops.back(); }
};

/// A schedule on the discrete grid.
struct DiscreteSchedule {
    /// Steps t_0 .. t_{H-1}: floor(horizon / r_t) + 1, or 0 when the
    /// schedule's horizon is not positive.
    int horizonSteps = 0;
    std::vector<DiscreteRun> runs;  ///< one per schedule run, in order
};

/// Map `schedule` onto the grid of `graph` (its resolution and segments).
[[nodiscard]] DiscreteSchedule discretize(const SegmentGraph& graph, const TrainSet& trains,
                                          const Schedule& schedule);

/// Fewest steps a train of `lengthSegments` moving at most `speedSegments`
/// per step (>= 1) needs before any of its segments covers a segment
/// `distance` hops from one it covers: its body may already reach
/// `lengthSegments - 1` hops closer. Never overestimates.
[[nodiscard]] constexpr int travelLowerBound(int distance, int lengthSegments,
                                             int speedSegments) {
    const int effective = std::max(0, distance - (lengthSegments - 1));
    return (effective + speedSegments - 1) / speedSegments;
}

}  // namespace etcs::rail
