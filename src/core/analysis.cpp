#include "core/analysis.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>

#include "cnf/cardinality.hpp"

namespace etcs::core {

std::vector<TradeoffPoint> tradeoffCurve(const Instance& instance, int maxExtraBorders,
                                         const TaskOptions& options) {
    ETCS_REQUIRE_MSG(maxExtraBorders >= 0, "border budget must be non-negative");
    const auto backend = makeBackend(options);
    Encoder encoder(*backend, instance, options.encoder);
    encoder.encode(nullptr);

    const auto borders = encoder.freeBorderLiterals();
    // A budget of |borders| or more is unconstrained; clamp the sweep.
    const int maxUseful = static_cast<int>(borders.size());
    std::optional<cnf::Totalizer> totalizer;
    if (maxUseful > 0) {
        totalizer.emplace(*backend, borders);
    }

    const int lo = encoder.completionLowerBound();
    const int hi = instance.horizonSteps() - 1;

    std::vector<TradeoffPoint> curve;
    for (int k = 0; k <= maxExtraBorders; ++k) {
        TradeoffPoint point;
        point.extraBorders = k;
        std::vector<cnf::Literal> budget;
        if (k < maxUseful) {
            budget.push_back(totalizer->atMostAssumption(static_cast<std::size_t>(k)));
        }
        if (lo <= hi) {
            const auto search = opt::smallestFeasibleIndex(
                *backend, [&](int step) { return encoder.doneAllLiteral(step); }, lo, hi,
                options.timeSearch, budget);
            if (search.feasible) {
                point.feasible = true;
                point.completionSteps = search.index;
                point.sectionCount = encoder.decode().sectionCount;
            }
        }
        curve.push_back(point);
        if (k >= maxUseful) {
            break;  // further budgets cannot change anything
        }
    }
    return curve;
}

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

GenerationResult generateLayoutWeighted(const Instance& instance,
                                        const std::function<int(SegNodeId)>& costOf,
                                        const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "layout generation requires a fully timed schedule");
    ETCS_REQUIRE_MSG(static_cast<bool>(costOf), "cost function required");
    const auto start = std::chrono::steady_clock::now();
    GenerationResult result;

    const auto backend = makeBackend(options);
    Encoder encoder(*backend, instance, options.encoder);
    encoder.encode(nullptr);

    // Collect weights per candidate border node, in literal order.
    const auto& graph = instance.graph();
    std::vector<int> weights;
    std::vector<cnf::Literal> soft(encoder.freeBorderLiterals().begin(),
                                   encoder.freeBorderLiterals().end());
    std::size_t literalIndex = 0;
    for (std::size_t n = 0; n < graph.numNodes() && literalIndex < soft.size(); ++n) {
        if (!graph.node(SegNodeId(n)).fixedBorder) {
            const int cost = costOf(SegNodeId(n));
            ETCS_REQUIRE_MSG(cost > 0, "border costs must be positive");
            weights.push_back(cost);
            ++literalIndex;
        }
    }

    const auto minimized =
        opt::minimizeWeightedTrueLiterals(*backend, soft, weights, options.borderSearch);
    result.stats.solveCalls = minimized.solveCalls;
    result.feasible = minimized.feasible;
    if (result.feasible) {
        result.solution = encoder.decode();
        result.sectionCount = result.solution->sectionCount;
    }
    result.stats.numVariables = backend->numVariables();
    result.stats.numClauses = backend->numClauses();
    result.stats.runtimeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
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
        // Physical lower bound: departure plus unimpeded travel time.
        const int travel =
            instance.segmentDistance(run.originSegment, run.destination().segment);
        const int bound = run.departureStep + (travel + run.speedSegments - 1) /
                                                  run.speedSegments;

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

IndividualArrivalResult optimizeIndividualArrivals(const Instance& instance,
                                                   std::vector<std::size_t> priority,
                                                   const TaskOptions& options) {
    const auto start = std::chrono::steady_clock::now();
    IndividualArrivalResult result;
    result.doneSteps.assign(instance.numRuns(), -1);

    if (priority.empty()) {
        priority.resize(instance.numRuns());
        std::iota(priority.begin(), priority.end(), std::size_t{0});
    }
    ETCS_REQUIRE_MSG(priority.size() == instance.numRuns(),
                     "priority must list every run exactly once");

    const auto backend = makeBackend(options);
    Encoder encoder(*backend, instance, options.encoder);
    encoder.encode(nullptr);

    const int horizon = instance.horizonSteps();
    // Every train must still be able to finish within the horizon while the
    // leaders grab their best arrivals -- otherwise the greedy lexicographic
    // choice could strand a lower-priority train.
    const cnf::Literal everyoneFinishes[] = {encoder.doneAllLiteral(horizon - 1)};
    ++result.stats.solveCalls;
    result.feasible = backend->solve(everyoneFinishes) == cnf::SolveStatus::Sat;
    for (std::size_t rank = 0; rank < priority.size() && result.feasible; ++rank) {
        const std::size_t run = priority[rank];
        const DiscreteRun& r = instance.runs()[run];
        // Earliest conceivable done step: travel time plus one step to leave.
        const int travel = instance.segmentDistance(r.originSegment,
                                                    r.destination().segment);
        const int lo = r.departureStep + (travel + r.speedSegments - 1) / r.speedSegments + 1;
        if (lo > horizon - 1) {
            result.feasible = false;
            break;
        }
        const auto search = opt::smallestFeasibleIndex(
            *backend, [&](int step) { return encoder.doneLiteral(run, step); }, lo,
            horizon - 1, options.timeSearch, everyoneFinishes);
        result.stats.solveCalls += search.solveCalls;
        if (!search.feasible) {
            result.feasible = false;
            break;
        }
        result.doneSteps[run] = search.index;
        // Freeze this train's arrival before optimizing the next one.
        backend->addUnit(encoder.doneLiteral(run, search.index));
    }

    if (result.feasible) {
        ++result.stats.solveCalls;
        // A cancelled solve leaves the task without a solution, like the
        // base tasks; only UNSAT would contradict the searches above.
        const cnf::SolveStatus status = backend->solve();
        ETCS_REQUIRE_MSG(status != cnf::SolveStatus::Unsat,
                         "lexicographically fixed instance must stay satisfiable");
        result.feasible = status == cnf::SolveStatus::Sat;
    }
    if (result.feasible) {
        result.solution = encoder.decode();
    }
    result.stats.numVariables = backend->numVariables();
    result.stats.numClauses = backend->numClauses();
    result.stats.runtimeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return result;
}

}  // namespace etcs::core
