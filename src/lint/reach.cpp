#include "lint/reach.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace etcs::lint {

namespace {

constexpr int kNoStep = std::numeric_limits<int>::max();

/// Iteration cap for the narrowing loop. Narrowing is sound at any point
/// (stopping early only prunes less), so the cap bounds wall-clock without
/// affecting correctness; real instances converge in two or three passes.
constexpr int kMaxNarrowingPasses = 32;

}  // namespace

ReachAnalysis::ReachAnalysis(const rail::SegmentGraph& graph,
                             std::span<const rail::DiscreteRun> runs, int horizonSteps)
    : runs_(runs.begin(), runs.end()),
      horizonSteps_(horizonSteps),
      numSegments_(graph.numSegments()) {
    ETCS_REQUIRE_MSG(horizonSteps_ > 0, "reach analysis needs a positive horizon");
    allowed_.resize(runs_.size());
    cutoff_.assign(runs_.size(), horizonSteps_ - 1);
    prompt_.assign(runs_.size(), 0);
    for (std::size_t run = 0; run < runs_.size(); ++run) {
        const rail::DiscreteRun& r = runs_[run];
        ETCS_REQUIRE_MSG(r.speedSegments >= 1, "reach analysis needs speed >= 1 seg/step");
        ETCS_REQUIRE_MSG(r.departureStep >= 0 && r.departureStep < horizonSteps_,
                         "reach analysis needs departure inside the horizon");
        analyzeRun(graph, run);
        collectViolations(run);
    }
    for (const auto& cells : allowed_) {
        possibleCells_ +=
            static_cast<std::uint64_t>(std::count(cells.begin(), cells.end(), char{1}));
    }
}

void ReachAnalysis::analyzeRun(const rail::SegmentGraph& graph, std::size_t runIndex) {
    const rail::DiscreteRun& r = runs_[runIndex];
    const int H = horizonSteps_;
    const std::size_t S = numSegments_;
    const auto travel = [&r](int distance) {
        return rail::travelLowerBound(distance, r.lengthSegments, r.speedSegments);
    };

    std::vector<int> distOrigin(S);
    graph.distancesFrom(r.originSegment, distOrigin);
    std::vector<std::vector<int>> distStop(r.stops.size(), std::vector<int>(S));
    for (std::size_t j = 0; j < r.stops.size(); ++j) {
        graph.distancesFrom(r.stops[j].segment, distStop[j]);
    }

    // Prompt-model cutoff (docs/REACHABILITY.md): when every stop is pinned
    // and the destination's pin interval ends last, any model can be
    // transformed into one where the run is done right after its final
    // obligation, so no cell after max(arrival + dwell - 1) is ever needed.
    const bool fullyPinned =
        !r.stops.empty() &&
        std::all_of(r.stops.begin(), r.stops.end(),
                    [](const rail::DiscreteStop& s) { return s.arrivalStep.has_value(); });
    if (fullyPinned) {
        const rail::DiscreteStop& dest = r.stops.back();
        const int destEnd = *dest.arrivalStep + dest.dwellSteps - 1;
        const bool destEndsLast =
            std::all_of(r.stops.begin(), r.stops.end(), [&](const rail::DiscreteStop& s) {
                return *s.arrivalStep + s.dwellSteps - 1 <= destEnd;
            });
        if (destEndsLast && destEnd < H - 1) {
            cutoff_[runIndex] = destEnd;
            prompt_[runIndex] = 1;
        }
    }
    const int cutoff = cutoff_[runIndex];

    // Base abstraction: forward shortest-path cone from the departure,
    // clipped at the cutoff (generalizes the L024 bound to every segment).
    std::vector<char>& cells = allowed_[runIndex];
    cells.assign(S * static_cast<std::size_t>(H), 0);
    for (std::size_t s = 0; s < S; ++s) {
        if (distOrigin[s] < 0) {
            continue;
        }
        const int first = r.departureStep + travel(distOrigin[s]);
        for (int t = std::max(first, r.departureStep); t <= cutoff; ++t) {
            cells[s * static_cast<std::size_t>(H) + static_cast<std::size_t>(t)] = 1;
        }
    }

    // Narrowing fixpoint. Every pass removes only cells that are impossible
    // in every (prompt-transformed) model, using the current per-stop
    // earliest/latest bounds, which themselves only tighten monotonically —
    // so the loop terminates and is sound at every iteration.
    const auto cellAt = [&](SegmentId seg, int t) -> char& {
        return cells[seg.get() * static_cast<std::size_t>(H) + static_cast<std::size_t>(t)];
    };
    std::vector<int> firstAtStop(r.stops.size(), kNoStep);
    std::vector<int> lastAtStop(r.stops.size(), -1);
    for (int pass = 0; pass < kMaxNarrowingPasses; ++pass) {
        ++iterations_;
        for (std::size_t j = 0; j < r.stops.size(); ++j) {
            firstAtStop[j] = kNoStep;
            lastAtStop[j] = -1;
            for (int t = r.departureStep; t <= cutoff; ++t) {
                if (cellAt(r.stops[j].segment, t) != 0) {
                    firstAtStop[j] = std::min(firstAtStop[j], t);
                    lastAtStop[j] = t;
                }
            }
        }
        bool changed = false;
        for (std::size_t s = 0; s < S; ++s) {
            for (int t = r.departureStep; t <= cutoff; ++t) {
                char& cell = cells[s * static_cast<std::size_t>(H) + static_cast<std::size_t>(t)];
                if (cell == 0) {
                    continue;
                }
                bool ok = true;
                for (std::size_t j = 0; j < r.stops.size() && ok; ++j) {
                    const rail::DiscreteStop& stop = r.stops[j];
                    const int d = distStop[j][s];
                    if (d < 0) {
                        ok = false;  // disconnected from an obligatory stop
                        break;
                    }
                    const int tl = travel(d);
                    if (tl == 0) {
                        continue;  // the train body can cover both at once
                    }
                    if (stop.arrivalStep) {
                        // The visit interval [a, a + dwell - 1] is fixed, and
                        // tl >= 1 means the train cannot stand at s during it:
                        // it must be either tl steps of travel before the
                        // visit or tl steps after its end.
                        const int a = *stop.arrivalStep;
                        const int end = a + stop.dwellSteps - 1;
                        ok = t <= a - tl || t >= end + tl;
                    } else {
                        // Open stop: the dwell window either still lies ahead
                        // (travel + dwell must fit before the stop's latest
                        // admissible step) or was completed before t (travel
                        // back from the stop's earliest possible completion).
                        const bool visitAhead =
                            lastAtStop[j] >= 0 && t + tl + stop.dwellSteps - 1 <= lastAtStop[j];
                        const bool visitBehind =
                            firstAtStop[j] != kNoStep &&
                            t >= firstAtStop[j] + stop.dwellSteps - 1 + tl;
                        ok = visitAhead || visitBehind;
                    }
                }
                if (!ok) {
                    cell = 0;
                    changed = true;
                }
            }
        }
        if (!changed) {
            break;
        }
    }
}

void ReachAnalysis::collectViolations(std::size_t runIndex) {
    const rail::DiscreteRun& r = runs_[runIndex];
    if (!possible(runIndex, r.originSegment, r.departureStep)) {
        violations_.push_back(ReachViolation{runIndex, -1,
                                             ReachViolation::Kind::OriginUnreachable,
                                             r.departureStep});
        return;  // with no admissible departure cell everything else is moot
    }
    for (std::size_t j = 0; j < r.stops.size(); ++j) {
        const rail::DiscreteStop& stop = r.stops[j];
        if (stop.arrivalStep) {
            const int first = *stop.arrivalStep;
            const int last = std::min(first + stop.dwellSteps - 1, horizonSteps_ - 1);
            for (int t = first; t <= last; ++t) {
                if (!possible(runIndex, stop.segment, t)) {
                    violations_.push_back(ReachViolation{
                        runIndex, static_cast<int>(j), ReachViolation::Kind::PinnedStopEmpty,
                        t});
                    break;
                }
            }
        } else {
            const StepWindow w = window(runIndex, stop.segment);
            if (w.empty()) {
                violations_.push_back(ReachViolation{
                    runIndex, static_cast<int>(j), ReachViolation::Kind::OpenStopEmpty, -1});
                continue;
            }
            // Some dwell-length band of consecutive admissible steps must
            // exist, or the encoder's visit clause is empty.
            bool fits = false;
            int streak = 0;
            for (int t = w.earliest; t <= w.latest && !fits; ++t) {
                streak = possible(runIndex, stop.segment, t) ? streak + 1 : 0;
                fits = streak >= stop.dwellSteps;
            }
            if (!fits) {
                violations_.push_back(ReachViolation{
                    runIndex, static_cast<int>(j), ReachViolation::Kind::DwellUnplaceable, -1});
            }
        }
    }
}

StepWindow ReachAnalysis::window(std::size_t run, SegmentId segment) const {
    StepWindow w{horizonSteps_, -1};
    const std::size_t base = segment.get() * static_cast<std::size_t>(horizonSteps_);
    const std::vector<char>& cells = allowed_.at(run);
    for (int t = 0; t < horizonSteps_; ++t) {
        if (cells[base + static_cast<std::size_t>(t)] != 0) {
            w.earliest = std::min(w.earliest, t);
            w.latest = t;
        }
    }
    return w;
}

ScheduleReach analyzeSchedule(const rail::SegmentGraph& graph, const rail::TrainSet& trains,
                              const rail::Schedule& schedule) {
    ScheduleReach result;
    rail::DiscreteSchedule discrete = rail::discretize(graph, trains, schedule);
    const int horizonSteps = discrete.horizonSteps;
    if (horizonSteps == 0) {
        return result;  // lintSchedule reports L023; nothing to analyze
    }

    std::vector<rail::DiscreteRun> runs;
    for (std::size_t index = 0; index < discrete.runs.size(); ++index) {
        rail::DiscreteRun& r = discrete.runs[index];
        // Runs with structural defects the schedule linter already rejects
        // (L020/L021/L022/L023) are skipped, not re-reported.
        if (r.speedSegments < 1 || r.departureStep < 0 || r.departureStep >= horizonSteps) {
            continue;
        }
        bool structurallySound = true;
        SegmentId previous = r.originSegment;
        int lastPinnedStep = r.departureStep;
        for (const rail::DiscreteStop& stop : r.stops) {
            if (graph.distance(previous, stop.segment) < 0) {
                structurallySound = false;
                break;
            }
            if (stop.arrivalStep) {
                if (*stop.arrivalStep < lastPinnedStep ||
                    *stop.arrivalStep + stop.dwellSteps > horizonSteps) {
                    structurallySound = false;
                    break;
                }
                lastPinnedStep = *stop.arrivalStep;
            }
            previous = stop.segment;
        }
        if (!structurallySound) {
            continue;
        }
        runs.push_back(std::move(r));
        result.scheduleRunIndex.push_back(index);
    }
    result.analysis.emplace(graph, runs, horizonSteps);
    return result;
}

void lintReachability(const rail::SegmentGraph& graph, const rail::TrainSet& trains,
                      const rail::Schedule& schedule, LintReport& report) {
    const ScheduleReach reach = analyzeSchedule(graph, trains, schedule);
    if (!reach.analysis) {
        return;
    }
    const ReachAnalysis& analysis = *reach.analysis;
    const rail::Network& network = graph.network();

    const auto stopName = [&](std::size_t scheduleRun, int stopIndex) -> std::string {
        const rail::TrainRun& run = schedule.runs()[scheduleRun];
        if (stopIndex < 0) {
            return network.station(run.origin).name;
        }
        return network.station(run.stops[static_cast<std::size_t>(stopIndex)].station).name;
    };

    std::vector<char> runHasError(analysis.numRuns(), 0);
    for (const ReachViolation& v : analysis.violations()) {
        runHasError[v.run] = 1;
        const std::size_t scheduleRun = reach.scheduleRunIndex[v.run];
        const rail::TrainRun& run = schedule.runs()[scheduleRun];
        const std::string who = "train " + trains.train(run.train).name;
        const std::string where = stopName(scheduleRun, v.stopIndex);
        switch (v.kind) {
            case ReachViolation::Kind::OriginUnreachable:
                report.add(Diagnostic{
                    "R001", Severity::Error, who,
                    "departure from " + where + " at step " + std::to_string(v.step) +
                        " lies outside the run's reachability window (schedule provably "
                        "unsatisfiable)",
                    "check the departure time against the run's other obligations"});
                break;
            case ReachViolation::Kind::PinnedStopEmpty:
                report.add(Diagnostic{
                    "R001", Severity::Error, who,
                    "pinned stop " + where + " at step " + std::to_string(v.step) +
                        " lies outside the run's reachability window (schedule provably "
                        "unsatisfiable; stronger than the L024 shortest-path bound)",
                    "move the arrival into the window reported by etcslint --reach"});
                break;
            case ReachViolation::Kind::OpenStopEmpty:
                report.add(Diagnostic{
                    "R001", Severity::Error, who,
                    "stop " + where +
                        " has an empty reachability window: no feasible trajectory can "
                        "visit it (schedule provably unsatisfiable)",
                    "extend the horizon or relax the run's other obligations"});
                break;
            case ReachViolation::Kind::DwellUnplaceable:
                report.add(Diagnostic{
                    "R002", Severity::Error, who,
                    "dead stop: the dwell at " + where + " (" +
                        std::to_string(analysis.run(v.run)
                                           .stops[static_cast<std::size_t>(v.stopIndex)]
                                           .dwellSteps) +
                        " steps) cannot fit inside the stop's reachability window "
                        "(schedule provably unsatisfiable)",
                    "shorten the dwell, extend the horizon, or relax the deadlines"});
                break;
        }
    }

    // R003: a pinned arrival whose arrive-by reading can never bind, because
    // the horizon and the obligations after it already force an arrival at
    // or before the pinned step. Informational — the exact-time pin still
    // constrains the run; only the deadline component is redundant.
    for (std::size_t run = 0; run < analysis.numRuns(); ++run) {
        if (runHasError[run] != 0) {
            continue;
        }
        const rail::DiscreteRun& r = analysis.run(run);
        const std::size_t scheduleRun = reach.scheduleRunIndex[run];
        const rail::TrainRun& trainRun = schedule.runs()[scheduleRun];
        const std::string who = "train " + trains.train(trainRun.train).name;
        for (std::size_t j = 0; j < r.stops.size(); ++j) {
            if (!r.stops[j].arrivalStep) {
                continue;
            }
            // Latest arrival at stop j that still leaves room for everything
            // after it (ignoring this pin itself).
            int latestBound = (analysis.horizonSteps() - 1) - (r.stops[j].dwellSteps - 1);
            for (std::size_t k = j + 1; k < r.stops.size(); ++k) {
                const int distance = graph.distance(r.stops[j].segment, r.stops[k].segment);
                const int travel =
                    rail::travelLowerBound(distance, r.lengthSegments, r.speedSegments);
                const int bound = r.stops[k].arrivalStep
                                      ? *r.stops[k].arrivalStep - travel
                                      : (analysis.horizonSteps() - r.stops[k].dwellSteps) -
                                            travel;
                latestBound = std::min(latestBound, bound);
            }
            if (*r.stops[j].arrivalStep >= latestBound) {
                report.add(Diagnostic{
                    "R003", Severity::Info, who,
                    "vacuous deadline: " + stopName(scheduleRun, static_cast<int>(j)) +
                        " is pinned at step " + std::to_string(*r.stops[j].arrivalStep) +
                        " but later obligations already force arrival by step " +
                        std::to_string(latestBound) + "; the deadline can never bind",
                    "the pin only matters for its exact-time component"});
            }
        }
    }
}

}  // namespace etcs::lint
