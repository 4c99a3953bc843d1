#include "core/analysis.hpp"

#include <algorithm>

namespace etcs::core {

RobustnessReport delayRobustness(const Instance& instance, const VssLayout& layout,
                                 int maxDelaySteps, bool shiftArrivals,
                                 const TaskOptions& options) {
    ETCS_REQUIRE_MSG(maxDelaySteps >= 1, "need at least one delay step to check");
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "robustness analysis requires a fully timed schedule");

    const Seconds stepLength = instance.resolution().temporal;
    const auto& baseSchedule = instance.schedule();

    RobustnessReport report;
    report.feasible.resize(baseSchedule.size());
    report.toleranceSteps.assign(baseSchedule.size(), 0);

    for (std::size_t r = 0; r < baseSchedule.size(); ++r) {
        for (int delay = 1; delay <= maxDelaySteps; ++delay) {
            const Seconds shift = Seconds(stepLength.count() * delay);
            rail::Schedule delayed;
            for (std::size_t other = 0; other < baseSchedule.size(); ++other) {
                rail::TrainRun run = baseSchedule.runs()[other];
                if (other == r) {
                    run.departure = run.departure + shift;
                    if (shiftArrivals) {
                        for (rail::TimedStop& stop : run.stops) {
                            if (stop.arrival) {
                                stop.arrival = *stop.arrival + shift;
                            }
                        }
                    }
                }
                delayed.addRun(std::move(run));
            }
            if (shiftArrivals) {
                delayed.setHorizon(baseSchedule.horizon() + shift);
            }

            bool works = false;
            try {
                const Instance delayedInstance(instance.network(), instance.trains(), delayed,
                                               instance.resolution());
                // The layout's flags vector is sized by segment-graph nodes;
                // the delayed instance shares the network and resolution, so
                // the graphs are structurally identical.
                works = verifySchedule(delayedInstance, layout, options).feasible;
            } catch (const InputError&) {
                works = false;  // delay pushed the run outside the horizon
            }
            report.feasible[r].push_back(works);
            if (works && report.toleranceSteps[r] == delay - 1) {
                report.toleranceSteps[r] = delay;
            }
        }
    }
    return report;
}

SlackReport scheduleSlack(const Instance& instance, const VssLayout& layout,
                          const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "slack analysis requires a fully timed schedule");
    const auto& baseSchedule = instance.schedule();
    const Seconds stepLength = instance.resolution().temporal;

    SlackReport report;
    report.tightestArrivalStep.assign(baseSchedule.size(), -1);
    report.slackSteps.assign(baseSchedule.size(), -1);

    for (std::size_t r = 0; r < baseSchedule.size(); ++r) {
        const DiscreteRun& run = instance.runs()[r];
        const int scheduled = *run.destination().arrivalStep;
        // No arrival before the travel bound, nor before an intermediate
        // stop's pinned arrival (the Instance would reject that schedule).
        int bound = instance.earliestArrivalStep(r);
        for (std::size_t j = 0; j + 1 < run.stops.size(); ++j) {
            bound = std::max(bound, *run.stops[j].arrivalStep);
        }

        // Binary search the smallest feasible arrival in [bound, scheduled].
        // Feasibility is monotone here: arriving later is never harder when
        // the train may keep standing at its destination.
        auto feasibleAt = [&](int arrivalStep) {
            rail::Schedule adjusted;
            for (std::size_t other = 0; other < baseSchedule.size(); ++other) {
                rail::TrainRun tweaked = baseSchedule.runs()[other];
                if (other == r) {
                    tweaked.stops.back().arrival =
                        Seconds(stepLength.count() * arrivalStep);
                }
                adjusted.addRun(std::move(tweaked));
            }
            adjusted.setHorizon(baseSchedule.horizon());
            const Instance adjustedInstance(instance.network(), instance.trains(), adjusted,
                                            instance.resolution());
            return verifySchedule(adjustedInstance, layout, options).feasible;
        };

        if (!feasibleAt(scheduled)) {
            continue;  // already infeasible as scheduled
        }
        int feasibleHi = scheduled;
        int infeasibleLo = bound - 1;
        while (infeasibleLo + 1 < feasibleHi) {
            const int mid = infeasibleLo + (feasibleHi - infeasibleLo) / 2;
            if (feasibleAt(mid)) {
                feasibleHi = mid;
            } else {
                infeasibleLo = mid;
            }
        }
        report.tightestArrivalStep[r] = feasibleHi;
        report.slackSteps[r] = scheduled - feasibleHi;
    }
    return report;
}

}  // namespace etcs::core
