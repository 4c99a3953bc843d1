#include "core/validator.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

namespace etcs::core {

namespace {

/// Occupied segments at a step (empty when absent).
const std::vector<SegmentId>& occupiedAt(const RunTrace& trace, int step) {
    return trace.occupied[static_cast<std::size_t>(step)];
}

bool contains(const std::vector<SegmentId>& segs, SegmentId s) {
    return std::find(segs.begin(), segs.end(), s) != segs.end();
}

/// True when the segments form one node-simple chain.
bool isChain(const rail::SegmentGraph& graph, const std::vector<SegmentId>& segs) {
    if (segs.empty()) {
        return false;
    }
    if (segs.size() == 1) {
        return true;
    }
    // Node occurrence counting: a k-segment chain touches k+1 distinct
    // nodes; the two chain ends once, every interior node twice.
    std::map<SegNodeId, int> occurrences;
    for (SegmentId s : segs) {
        ++occurrences[graph.segment(s).a];
        ++occurrences[graph.segment(s).b];
    }
    int once = 0;
    for (const auto& [node, count] : occurrences) {
        if (count == 1) {
            ++once;
        } else if (count != 2) {
            return false;
        }
    }
    if (once != 2 || occurrences.size() != segs.size() + 1) {
        return false;
    }
    // Connectivity via BFS over shared nodes.
    std::set<SegmentId> pending(segs.begin() + 1, segs.end());
    std::deque<SegmentId> queue{segs.front()};
    while (!queue.empty()) {
        const SegmentId current = queue.front();
        queue.pop_front();
        for (auto it = pending.begin(); it != pending.end();) {
            if (graph.sharedNode(current, *it).valid()) {
                queue.push_back(*it);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    return pending.empty();
}

std::string runName(const Instance& instance, std::size_t run) {
    return instance.trains().train(instance.runs()[run].train).name;
}

}  // namespace

std::vector<std::string> validateSolution(const Instance& instance, const Solution& solution) {
    std::vector<std::string> violations;
    auto report = [&violations](const std::string& message) { violations.push_back(message); };

    const auto& graph = instance.graph();
    const int horizon = instance.horizonSteps();
    ETCS_REQUIRE_MSG(solution.traces.size() == instance.numRuns(),
                     "solution has a trace per run");

    // One BFS row of hop distances from the segment being checked.
    std::vector<int> hops(graph.numSegments());

    // Section lookup for the solution's layout.
    const auto sections = graph.sections(solution.layout.flags());
    std::vector<int> sectionOf(graph.numSegments(), -1);
    for (std::size_t i = 0; i < sections.size(); ++i) {
        for (SegmentId s : sections[i]) {
            sectionOf[s.get()] = static_cast<int>(i);
        }
    }

    // ---- per-run rules ---------------------------------------------------
    for (std::size_t run = 0; run < instance.numRuns(); ++run) {
        const DiscreteRun& r = instance.runs()[run];
        const RunTrace& trace = solution.traces[run];
        const std::string name = runName(instance, run);

        bool everPresent = false;
        bool presenceEnded = false;
        for (int t = 0; t < horizon; ++t) {
            const auto& segs = occupiedAt(trace, t);
            if (t < r.departureStep && !segs.empty()) {
                report(name + ": occupies track before its departure step " +
                       std::to_string(t));
            }
            if (segs.empty()) {
                if (everPresent) {
                    presenceEnded = true;
                }
                continue;
            }
            if (presenceEnded) {
                report(name + ": reappears at step " + std::to_string(t) +
                       " after having left the network");
            }
            everPresent = true;
            if (static_cast<int>(segs.size()) != r.lengthSegments) {
                report(name + ": occupies " + std::to_string(segs.size()) +
                       " segments at step " + std::to_string(t) + ", expected " +
                       std::to_string(r.lengthSegments));
            }
            if (!isChain(graph, segs)) {
                report(name + ": occupied segments at step " + std::to_string(t) +
                       " do not form a chain");
            }
        }
        if (!everPresent) {
            report(name + ": never appears on the network");
        }
        if (!occupiedAt(trace, r.departureStep).empty() &&
            !contains(occupiedAt(trace, r.departureStep), r.originSegment)) {
            report(name + ": does not start at its origin segment");
        }
        if (occupiedAt(trace, r.departureStep).empty()) {
            report(name + ": absent at its departure step");
        }

        // Release: the encoding's done machinery (done^t -> done^{t-1} or
        // occ_dest^{t-1}) lets a train hand back its sections only from its
        // destination, so a trace that vanishes elsewhere is no execution.
        // Trains still on track at the end of the horizon owe nothing.
        if (everPresent && presenceEnded) {
            int lastPresent = -1;
            for (int t = 0; t < horizon; ++t) {
                if (!occupiedAt(trace, t).empty()) {
                    lastPresent = t;
                }
            }
            if (!contains(occupiedAt(trace, lastPresent), r.destination().segment)) {
                report(name + ": releases its sections at step " +
                       std::to_string(lastPresent + 1) +
                       " without standing at its destination");
            }
        }

        // Stops: pinned stops (plus dwell) at their steps, open stops at
        // some window of dwellSteps consecutive steps.
        for (const DiscreteStop& stop : r.stops) {
            if (stop.arrivalStep) {
                for (int j = 0; j < stop.dwellSteps; ++j) {
                    const int step = *stop.arrivalStep + j;
                    if (step >= horizon ||
                        !contains(occupiedAt(trace, step), stop.segment)) {
                        report(name + ": misses pinned stop at step " + std::to_string(step));
                    }
                }
            } else {
                bool visited = false;
                for (int t = 0; t + stop.dwellSteps <= horizon && !visited; ++t) {
                    bool window = true;
                    for (int j = 0; j < stop.dwellSteps && window; ++j) {
                        window = contains(occupiedAt(trace, t + j), stop.segment);
                    }
                    visited = window;
                }
                if (!visited) {
                    report(name + ": never dwells at one of its stops");
                }
            }
        }

        // Movement: every occupied segment must reach some next-step segment.
        for (int t = 0; t + 1 < horizon; ++t) {
            const auto& now = occupiedAt(trace, t);
            const auto& next = occupiedAt(trace, t + 1);
            if (now.empty() || next.empty()) {
                continue;
            }
            for (SegmentId e : now) {
                graph.distancesFrom(e, hops);
                const bool reachable =
                    std::any_of(next.begin(), next.end(), [&](SegmentId f) {
                        const int d = hops[f.get()];
                        return d >= 0 && d <= r.speedSegments;
                    });
                if (!reachable) {
                    report(name + ": movement between steps " + std::to_string(t) + " and " +
                           std::to_string(t + 1) + " exceeds its speed");
                }
            }
        }
    }

    // ---- cross-run rules ---------------------------------------------------
    for (int t = 0; t < horizon; ++t) {
        std::map<int, std::size_t> ownerOfSection;
        for (std::size_t run = 0; run < instance.numRuns(); ++run) {
            for (SegmentId s : occupiedAt(solution.traces[run], t)) {
                const int section = sectionOf[s.get()];
                const auto [it, inserted] = ownerOfSection.emplace(section, run);
                if (!inserted && it->second != run) {
                    report("VSS exclusivity violated at step " + std::to_string(t) +
                           ": trains " + runName(instance, it->second) + " and " +
                           runName(instance, run) + " share section " +
                           std::to_string(section));
                }
            }
        }
    }

    // No pass-through: the corridor swept by a moving train must be free of
    // every other train at both steps.
    for (std::size_t mover = 0; mover < instance.numRuns(); ++mover) {
        const DiscreteRun& rm = instance.runs()[mover];
        for (int t = 0; t + 1 < horizon; ++t) {
            const auto& now = occupiedAt(solution.traces[mover], t);
            const auto& next = occupiedAt(solution.traces[mover], t + 1);
            if (now.empty() || next.empty()) {
                continue;
            }
            std::set<SegmentId> corridor;
            for (SegmentId e : now) {
                graph.distancesFrom(e, hops);
                for (SegmentId f : next) {
                    const int d = hops[f.get()];
                    if (d < 1 || d > rm.speedSegments) {
                        continue;
                    }
                    // d hops span d+1 segments including the endpoints.
                    for (const auto& path : graph.simplePaths(e, f, rm.speedSegments + 1)) {
                        corridor.insert(path.begin(), path.end());
                    }
                }
            }
            for (std::size_t other = 0; other < instance.numRuns(); ++other) {
                if (other == mover) {
                    continue;
                }
                for (int tau : {t, t + 1}) {
                    for (SegmentId g : occupiedAt(solution.traces[other], tau)) {
                        // Same-segment/same-step conflicts are exclusivity
                        // violations reported above; the corridor check is
                        // about sweeping over the other train.
                        if (corridor.contains(g) && !contains(occupiedAt(solution.traces[mover], tau), g)) {
                            report("pass-through conflict: " + runName(instance, mover) +
                                   " sweeps over " + runName(instance, other) + " at step " +
                                   std::to_string(tau));
                        }
                    }
                }
            }
        }
    }

    return violations;
}

}  // namespace etcs::core
