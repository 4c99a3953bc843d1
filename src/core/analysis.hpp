/// \file analysis.hpp
/// Higher-level design-space analyses that run the base tasks many times:
///
///  * delayRobustness   — "which departure delays does the timetable
///    survive?": per train and delay, whether the schedule remains
///    realizable on a fixed layout. Verification "covering all
///    possibilities" is the paper's stated motivation (footnote 4).
///  * scheduleSlack     — how far each arrival deadline could be tightened.
///
/// The analyses that solve one formula (the borders-vs-completion
/// trade-off curve, cost-weighted generation, per-train arrival
/// optimization) live with the base tasks in core/tasks.hpp and run their
/// pipeline.
#pragma once

#include <vector>

#include "core/tasks.hpp"

namespace etcs::core {

/// Per-train delay tolerance of a fully timed schedule on a fixed layout.
struct RobustnessReport {
    /// feasible[r][d-1]: does the schedule still work when run r departs d
    /// steps late (its arrivals shifted alike)?
    std::vector<std::vector<bool>> feasible;
    /// toleranceSteps[r]: largest d in [0..maxDelay] with all of 1..d
    /// feasible (0 = any delay breaks the timetable).
    std::vector<int> toleranceSteps;
};

/// Check, for every run and every delay d in [1..maxDelaySteps], whether the
/// timed schedule still works on `layout` when that single run departs d
/// steps late. When `shiftArrivals` is set (default) the delayed run's
/// arrival obligations shift by the same d (and the horizon grows
/// accordingly); otherwise the original arrival deadlines must still be met.
[[nodiscard]] RobustnessReport delayRobustness(const Instance& instance,
                                               const VssLayout& layout, int maxDelaySteps,
                                               bool shiftArrivals = true,
                                               const TaskOptions& options = {});

/// Per-run slack of a timed schedule on a fixed layout.
struct SlackReport {
    /// tightestArrivalStep[r]: smallest arrival step for run r's destination
    /// at which the whole schedule (other runs unchanged) still works;
    /// -1 when even the scheduled arrival fails.
    std::vector<int> tightestArrivalStep;
    /// slackSteps[r] = scheduled arrival - tightest arrival (>= 0), or -1.
    std::vector<int> slackSteps;
};

/// How much each arrival deadline of a fully timed schedule could be
/// tightened on the given layout, one run at a time (all other runs keep
/// their scheduled times). A slack of 0 means the timetable pins that train
/// to its fastest possible arrival.
[[nodiscard]] SlackReport scheduleSlack(const Instance& instance, const VssLayout& layout,
                                        const TaskOptions& options = {});

}  // namespace etcs::core
