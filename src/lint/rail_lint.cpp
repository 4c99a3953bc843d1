#include "lint/rail_lint.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "railway/discretize.hpp"
#include "util/error.hpp"

namespace etcs::lint {

namespace {

using rail::Network;
using rail::Schedule;
using rail::Scenario;
using rail::SegmentGraph;
using rail::TrainRun;
using rail::TrainSet;

Severity severityOf(std::string_view code) {
    for (const CodeInfo& info : knownCodes()) {
        if (info.code == code) {
            return info.severity;
        }
    }
    return Severity::Error;
}

rail::ParseIssueHandler issueCollector(LintReport& report) {
    return [&report](const rail::ParseIssue& issue) {
        report.add(Diagnostic{issue.code, severityOf(issue.code), issue.entity, issue.message,
                              issue.hint, issue.line});
    };
}

}  // namespace

void lintNetwork(const Network& network, LintReport& report) {
    if (network.numTracks() == 0) {
        report.add(Diagnostic{"L016", Severity::Error, "network " + network.name(),
                              "network has no tracks",
                              "declare at least one track between two nodes"});
        return;
    }

    // L012: every track must carry exactly one TTD section.
    for (std::size_t t = 0; t < network.numTracks(); ++t) {
        const rail::Track& track = network.track(TrackId(t));
        if (!network.ttdOfTrack(TrackId(t)).valid()) {
            report.add(Diagnostic{"L012", Severity::Error, "track " + track.name,
                                  "track does not belong to any TTD section",
                                  "list the track in a 'ttd' declaration"});
        }
    }

    // Node degrees: dangling nodes (L010) and switch anomalies (L014).
    std::vector<int> degree(network.numNodes(), 0);
    for (const rail::Track& track : network.tracks()) {
        ++degree[track.from.get()];
        ++degree[track.to.get()];
    }
    for (std::size_t n = 0; n < network.numNodes(); ++n) {
        const std::string& name = network.node(NodeId(n)).name;
        if (degree[n] == 0) {
            report.add(Diagnostic{"L010", Severity::Error, "node " + name,
                                  "isolated node: no track is incident to it",
                                  "connect the node with a track or remove it"});
        } else if (degree[n] > 3) {
            report.add(Diagnostic{"L014", Severity::Warning, "node " + name,
                                  "degree anomaly: " + std::to_string(degree[n]) +
                                      " tracks meet here (a physical switch joins at "
                                      "most 3)",
                                  "split the junction into simple switches"});
        }
    }

    // L011: connectivity among non-isolated nodes (isolated ones already got
    // their own diagnostic).
    std::size_t start = 0;
    while (start < network.numNodes() && degree[start] == 0) {
        ++start;
    }
    if (start < network.numNodes()) {
        std::vector<char> seen(network.numNodes(), 0);
        std::vector<NodeId> queue{NodeId(start)};
        seen[start] = 1;
        while (!queue.empty()) {
            const NodeId current = queue.back();
            queue.pop_back();
            for (const rail::Track& t : network.tracks()) {
                NodeId next;
                if (t.from == current) {
                    next = t.to;
                } else if (t.to == current) {
                    next = t.from;
                } else {
                    continue;
                }
                if (seen[next.get()] == 0) {
                    seen[next.get()] = 1;
                    queue.push_back(next);
                }
            }
        }
        std::vector<std::string> unreachable;
        for (std::size_t n = 0; n < network.numNodes(); ++n) {
            if (seen[n] == 0 && degree[n] > 0) {
                unreachable.push_back(network.node(NodeId(n)).name);
            }
        }
        if (!unreachable.empty()) {
            std::string sample;
            for (std::size_t i = 0; i < unreachable.size() && i < 3; ++i) {
                sample += (i > 0 ? ", " : "") + unreachable[i];
            }
            if (unreachable.size() > 3) {
                sample += ", ...";
            }
            report.add(Diagnostic{"L011", Severity::Error, "network " + network.name(),
                                  "network is not connected: " +
                                      std::to_string(unreachable.size()) +
                                      " node(s) unreachable from " +
                                      network.node(NodeId(start)).name + " (" + sample + ")",
                                  "join the components with a track or split the file"});
        }
    }

    // L013: parallel tracks between the same node pair inside one TTD are
    // redundant (legitimate passing loops put each side in its own TTD).
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, std::string> firstEdge;
    for (std::size_t t = 0; t < network.numTracks(); ++t) {
        const rail::Track& track = network.track(TrackId(t));
        const TtdId ttd = network.ttdOfTrack(TrackId(t));
        if (!ttd.valid()) {
            continue;
        }
        const auto lo = std::min(track.from.get(), track.to.get());
        const auto hi = std::max(track.from.get(), track.to.get());
        const auto key = std::make_tuple(lo, hi, ttd.get());
        const auto [it, inserted] = firstEdge.emplace(key, track.name);
        if (!inserted) {
            report.add(Diagnostic{"L013", Severity::Warning, "track " + track.name,
                                  "duplicate parallel edge: tracks " + it->second + " and " +
                                      track.name +
                                      " join the same nodes inside one TTD section",
                                  "merge the tracks or give each its own TTD"});
        }
    }

    // L015: a TTD section whose tracks do not touch cannot be observed by
    // one pair of axle counters.
    for (std::size_t ttdIndex = 0; ttdIndex < network.numTtds(); ++ttdIndex) {
        const rail::TtdSection& ttd = network.ttd(TtdId(ttdIndex));
        if (ttd.tracks.size() < 2) {
            continue;
        }
        std::vector<char> reached(ttd.tracks.size(), 0);
        std::vector<std::size_t> queue{0};
        reached[0] = 1;
        while (!queue.empty()) {
            const std::size_t current = queue.back();
            queue.pop_back();
            const rail::Track& a = network.track(ttd.tracks[current]);
            for (std::size_t other = 0; other < ttd.tracks.size(); ++other) {
                if (reached[other] != 0) {
                    continue;
                }
                const rail::Track& b = network.track(ttd.tracks[other]);
                if (a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to) {
                    reached[other] = 1;
                    queue.push_back(other);
                }
            }
        }
        if (std::count(reached.begin(), reached.end(), 1) !=
            static_cast<std::ptrdiff_t>(ttd.tracks.size())) {
            report.add(Diagnostic{"L015", Severity::Warning, "ttd " + ttd.name,
                                  "TTD section is not contiguous: its tracks do not form "
                                  "a connected piece of the network",
                                  "split the section into contiguous TTDs"});
        }
    }
}

void lintSchedule(const SegmentGraph& graph, const TrainSet& trains, const Schedule& schedule,
                  LintReport& report) {
    const Network& network = graph.network();
    const Resolution resolution = graph.resolution();
    ETCS_REQUIRE_MSG(resolution.temporal.count() > 0, "temporal resolution must be positive");

    const Seconds horizon = schedule.horizon();
    if (horizon.count() <= 0) {
        report.add(Diagnostic{"L023", Severity::Error, "schedule",
                              "scenario horizon is not positive",
                              "set an explicit 'horizon' or pin at least one arrival"});
        return;
    }

    // L027: the encoding assumes at most one run per train.
    std::map<std::uint32_t, int> runsPerTrain;
    for (const TrainRun& run : schedule.runs()) {
        if (++runsPerTrain[run.train.get()] == 2) {
            report.add(Diagnostic{"L027", Severity::Error,
                                  "train " + trains.train(run.train).name,
                                  "train has more than one run",
                                  "merge the runs or add a second train"});
        }
    }

    // Pinned (segment, step) occupations across all runs, for the pairwise
    // headway check (L026).
    struct Pin {
        std::size_t run;
        std::string what;
    };
    std::map<std::pair<std::uint32_t, int>, Pin> pins;
    auto recordPin = [&](std::size_t runIndex, SegmentId segment, int step,
                         const std::string& what) {
        const auto key = std::make_pair(segment.get(), step);
        const auto [it, inserted] = pins.emplace(key, Pin{runIndex, what});
        if (!inserted && it->second.run != runIndex) {
            report.add(Diagnostic{"L026", Severity::Error, what,
                                  "headway conflict: " + what + " and " + it->second.what +
                                      " pin segment " + graph.segmentLabel(segment) +
                                      " at step " + std::to_string(step) +
                                      " simultaneously (two trains cannot share a VSS)",
                                  "separate the conflicting times"});
        }
    };

    const rail::DiscreteSchedule discrete = rail::discretize(graph, trains, schedule);
    const int horizonSteps = discrete.horizonSteps;
    for (std::size_t runIndex = 0; runIndex < schedule.runs().size(); ++runIndex) {
        const TrainRun& run = schedule.runs()[runIndex];
        const rail::DiscreteRun& d = discrete.runs[runIndex];
        const std::string who = "train " + trains.train(run.train).name;

        if (d.speedSegments < 1) {
            report.add(Diagnostic{"L020", Severity::Error, who,
                                  "train cannot move at this resolution: speed rounds to "
                                  "zero segments per step",
                                  "refine the temporal or coarsen the spatial resolution"});
            continue;
        }

        const int departureStep = d.departureStep;
        if (departureStep >= horizonSteps) {
            report.add(Diagnostic{"L023", Severity::Error, who,
                                  "train departs at step " + std::to_string(departureStep) +
                                      ", after the scenario horizon (" +
                                      std::to_string(horizonSteps) + " steps)",
                                  "extend the horizon or move the departure earlier"});
            continue;
        }

        SegmentId previousSegment = d.originSegment;
        std::string previousName = network.station(run.origin).name;
        recordPin(runIndex, previousSegment, departureStep, who + " departing " + previousName);

        // Cumulative earliest occupation step along the run (the
        // shortest-path lower bound). Dwell times are deliberately NOT added
        // to the cumulative bound: a train may creep forward while its tail
        // still covers the stop, so only the first coverage step anchors the
        // next leg — this keeps every L024/L025 finding a sound UNSAT proof.
        int earliest = departureStep;
        int lastPinnedStep = departureStep;

        for (const rail::DiscreteStop& stop : d.stops) {
            const std::string stopName = network.station(stop.station).name;
            const SegmentId segment = stop.segment;
            const int distance = graph.distance(previousSegment, segment);
            if (distance < 0) {
                report.add(Diagnostic{"L021", Severity::Error, who,
                                      "stops " + previousName + " and " + stopName +
                                          " are disconnected in the segment graph",
                                      "check the track layout between the stops"});
                break;
            }
            earliest += rail::travelLowerBound(distance, d.lengthSegments, d.speedSegments);
            const int hold = stop.dwellSteps;

            if (stop.arrivalStep) {
                const int arrivalStep = *stop.arrivalStep;
                if (arrivalStep < lastPinnedStep) {
                    report.add(Diagnostic{"L022", Severity::Error, who,
                                          "stop " + stopName + " is scheduled at step " +
                                              std::to_string(arrivalStep) +
                                              ", before the previous stop or departure "
                                              "(step " +
                                              std::to_string(lastPinnedStep) + ")",
                                          "reorder the stops or fix the clock values"});
                    break;
                }
                if (arrivalStep + hold > horizonSteps) {
                    report.add(Diagnostic{"L023", Severity::Error, who,
                                          "stop " + stopName + " (arrival step " +
                                              std::to_string(arrivalStep) + ", dwell " +
                                              std::to_string(hold) +
                                              " steps) extends past the scenario horizon",
                                          "extend the horizon or move the stop earlier"});
                    break;
                }
                if (arrivalStep < earliest) {
                    report.add(Diagnostic{
                        "L024", Severity::Error, who,
                        "unreachable deadline: " + stopName + " is pinned at step " +
                            std::to_string(arrivalStep) + " but the shortest path admits " +
                            "no arrival before step " + std::to_string(earliest) +
                            " (schedule provably unsatisfiable)",
                        "move the arrival to step " + std::to_string(earliest) +
                            " (clock " + resolution.timeOf(earliest).clock() + ") or later"});
                    break;
                }
                for (int j = 0; j < hold; ++j) {
                    recordPin(runIndex, segment, arrivalStep + j, who + " at " + stopName);
                }
                earliest = std::max(earliest, arrivalStep);
                lastPinnedStep = arrivalStep;
            } else {
                // Open stop: some window of `hold` consecutive steps must
                // still fit before the horizon.
                if (earliest + hold > horizonSteps) {
                    report.add(Diagnostic{
                        "L025", Severity::Error, who,
                        "run cannot complete within the horizon: " + stopName +
                            " is not reachable before step " + std::to_string(earliest) +
                            " but the scenario ends at step " +
                            std::to_string(horizonSteps - 1) +
                            " (schedule provably unsatisfiable)",
                        "extend the horizon or relax the run"});
                    break;
                }
            }
            previousSegment = segment;
            previousName = stopName;
        }
    }
}

void lintScenario(const Network& network, const TrainSet& trains, const Schedule& schedule,
                  Resolution resolution, LintReport& report) {
    LintReport structural;
    lintNetwork(network, structural);
    report.merge(structural);
    if (structural.hasErrors()) {
        return;  // the segment graph needs a well-formed network
    }
    const SegmentGraph graph(network, resolution);
    lintSchedule(graph, trains, schedule, report);
}

rail::Network lintNetworkFile(std::istream& in, LintReport& report) {
    return rail::readNetworkLenient(in, issueCollector(report));
}

Scenario lintScenarioFile(std::istream& in, const Network& network, LintReport& report) {
    return rail::readScenarioLenient(in, network, issueCollector(report));
}

}  // namespace etcs::lint
