#include "gen/generator.hpp"

#include <algorithm>
#include <array>
#include <random>
#include <string>

#include "railway/discretize.hpp"
#include "railway/segment_graph.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace etcs::gen {

namespace {

using rail::Network;
using rail::Schedule;
using rail::SegmentGraph;
using rail::TimedStop;
using rail::TrainRun;
using rail::TrainSet;

/// Deterministic random stream. Raw mt19937_64 outputs with modulo mapping:
/// the engine is fully specified by the standard while the distribution
/// templates are implementation-defined, so generated fixtures stay
/// byte-identical across standard libraries. Modulo bias is irrelevant for
/// scenario sampling.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /// Uniform in [lo, hi], inclusive.
    int range(int lo, int hi) {
        ETCS_REQUIRE_MSG(lo <= hi, "empty range");
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<int>(engine_() % span);
    }

    bool chance(int percent) { return range(0, 99) < percent; }

private:
    std::mt19937_64 engine_;
};

struct Topology {
    Network network;
    std::vector<StationId> stations;  ///< candidate origins/destinations
    bool singleTrack = false;         ///< bias sampling toward one direction
};

/// Two parallel one-segment platform tracks between fresh nodes; the motif
/// every family with passing opportunities is built from.
void addStationMotif(Network& n, const std::string& tag, NodeId west, NodeId east,
                     std::int64_t unit, std::vector<StationId>& stations) {
    const auto a = n.addTrack(tag + "a", west, east, Meters(unit));
    const auto b = n.addTrack(tag + "b", west, east, Meters(unit));
    n.addTtd("T" + tag + "a", {a});
    n.addTtd("T" + tag + "b", {b});
    stations.push_back(n.addStation("St" + tag, a, Meters(0)));
    stations.push_back(n.addStation("St" + tag + "b", b, Meters(0)));
}

Topology buildCorridor(Rng& rng, int size, std::int64_t unit) {
    const int stations = std::max(1, size);
    Topology t{Network("corridor"), {}, false};
    NodeId previousEast;
    for (int i = 0; i < stations; ++i) {
        const std::string tag = std::to_string(i);
        const auto west = t.network.addNode("w" + tag);
        const auto east = t.network.addNode("e" + tag);
        if (i > 0) {
            const auto line = t.network.addTrack("l" + tag, previousEast, west,
                                                 Meters(unit * rng.range(1, 4)));
            t.network.addTtd("Tl" + tag, {line});
        }
        addStationMotif(t.network, tag, west, east, unit, t.stations);
        previousEast = east;
    }
    return t;
}

Topology buildStation(Rng& rng, int size, std::int64_t unit) {
    const int platforms = std::max(1, size);
    Topology t{Network("station"), {}, false};
    const auto a = t.network.addNode("A");
    const auto l = t.network.addNode("L");
    const auto r = t.network.addNode("R");
    const auto b = t.network.addNode("B");
    const std::int64_t westLen = unit * rng.range(2, 3);
    const std::int64_t eastLen = unit * rng.range(2, 3);
    const auto west = t.network.addTrack("aw", a, l, Meters(westLen));
    t.network.addTtd("Taw", {west});
    t.stations.push_back(t.network.addStation("West", west, Meters(0)));
    for (int i = 0; i < platforms; ++i) {
        const std::string tag = std::to_string(i);
        const auto p = t.network.addTrack("p" + tag, l, r, Meters(unit));
        t.network.addTtd("Tp" + tag, {p});
        t.stations.push_back(t.network.addStation("P" + tag, p, Meters(0)));
    }
    const auto east = t.network.addTrack("ae", r, b, Meters(eastLen));
    t.network.addTtd("Tae", {east});
    t.stations.push_back(t.network.addStation("East", east, Meters(eastLen - unit)));
    return t;
}

Topology buildJunction(Rng& rng, int size, std::int64_t unit) {
    const int branches = std::max(2, size);
    Topology t{Network("junction"), {}, false};
    const auto hub = t.network.addNode("J");
    for (int i = 0; i < branches; ++i) {
        const std::string tag = std::to_string(i);
        const auto mid = t.network.addNode("m" + tag);
        const auto end = t.network.addNode("t" + tag);
        const auto line =
            t.network.addTrack("br" + tag, hub, mid, Meters(unit * rng.range(1, 3)));
        const auto stationTrack = t.network.addTrack("st" + tag, mid, end, Meters(unit));
        t.network.addTtd("Tbr" + tag, {line});
        t.network.addTtd("Tst" + tag, {stationTrack});
        t.stations.push_back(t.network.addStation("St" + tag, stationTrack, Meters(0)));
    }
    return t;
}

Topology buildRing(Rng& rng, int size, std::int64_t unit) {
    const int motifs = std::max(2, size);
    Topology t{Network("ring"), {}, false};
    std::vector<NodeId> west(static_cast<std::size_t>(motifs));
    std::vector<NodeId> east(static_cast<std::size_t>(motifs));
    for (int i = 0; i < motifs; ++i) {
        const std::string tag = std::to_string(i);
        west[static_cast<std::size_t>(i)] = t.network.addNode("w" + tag);
        east[static_cast<std::size_t>(i)] = t.network.addNode("e" + tag);
        addStationMotif(t.network, tag, west[static_cast<std::size_t>(i)],
                        east[static_cast<std::size_t>(i)], unit, t.stations);
    }
    for (int i = 0; i < motifs; ++i) {
        const std::string tag = std::to_string(i);
        const auto line = t.network.addTrack(
            "l" + tag, east[static_cast<std::size_t>(i)],
            west[static_cast<std::size_t>((i + 1) % motifs)], Meters(unit * rng.range(1, 3)));
        t.network.addTtd("Tl" + tag, {line});
    }
    return t;
}

Topology buildSingleTrack(Rng& rng, int size, std::int64_t unit) {
    const int blocks = std::max(1, size);
    Topology t{Network("single_track"), {}, true};
    auto previous = t.network.addNode("n0");
    for (int i = 0; i < blocks; ++i) {
        const std::string tag = std::to_string(i);
        // A one-block line still needs two stations on distinct segments.
        const int units = blocks == 1 ? rng.range(2, 4) : rng.range(1, 3);
        std::string nextName = "n";
        nextName += std::to_string(i + 1);
        const auto next = t.network.addNode(nextName);
        const auto track = t.network.addTrack("t" + tag, previous, next, Meters(unit * units));
        t.network.addTtd("Tt" + tag, {track});
        t.stations.push_back(t.network.addStation("St" + tag, track, Meters(0)));
        if (i + 1 == blocks) {
            t.stations.push_back(
                t.network.addStation("End", track, Meters(unit * (units - 1))));
        }
        previous = next;
    }
    return t;
}

Topology buildNetwork(Rng& rng, int size, std::int64_t unit) {
    const int hubs = std::max(2, size);
    Topology t{Network("synthnet"), {}, false};
    std::vector<NodeId> west(static_cast<std::size_t>(hubs));
    std::vector<NodeId> east(static_cast<std::size_t>(hubs));
    for (int i = 0; i < hubs; ++i) {
        const std::string tag = std::to_string(i);
        west[static_cast<std::size_t>(i)] = t.network.addNode("h" + tag + "w");
        east[static_cast<std::size_t>(i)] = t.network.addNode("h" + tag + "e");
        const int platforms = rng.range(1, 2);
        for (int p = 0; p < platforms; ++p) {
            const std::string ptag = tag + "p" + std::to_string(p);
            const auto track = t.network.addTrack(
                "h" + ptag, west[static_cast<std::size_t>(i)],
                east[static_cast<std::size_t>(i)], Meters(unit));
            t.network.addTtd("Th" + ptag, {track});
            t.stations.push_back(t.network.addStation("H" + ptag, track, Meters(0)));
        }
    }
    // Random spanning tree over the hubs; connectors are plain lines or
    // lines with a passing loop in the middle (a stitched corridor motif).
    auto connect = [&](int from, int to, const std::string& tag) {
        const auto a = east[static_cast<std::size_t>(from)];
        const auto b = west[static_cast<std::size_t>(to)];
        if (rng.chance(50)) {
            const auto line = t.network.addTrack("c" + tag, a, b, Meters(unit * rng.range(1, 3)));
            t.network.addTtd("Tc" + tag, {line});
        } else {
            const auto m1 = t.network.addNode("c" + tag + "m1");
            const auto m2 = t.network.addNode("c" + tag + "m2");
            const auto in = t.network.addTrack("c" + tag + "i", a, m1,
                                               Meters(unit * rng.range(1, 2)));
            const auto loopA = t.network.addTrack("c" + tag + "a", m1, m2, Meters(unit));
            const auto loopB = t.network.addTrack("c" + tag + "b", m1, m2, Meters(unit));
            const auto out = t.network.addTrack("c" + tag + "o", m2, b,
                                                Meters(unit * rng.range(1, 2)));
            t.network.addTtd("Tc" + tag + "i", {in});
            t.network.addTtd("Tc" + tag + "a", {loopA});
            t.network.addTtd("Tc" + tag + "b", {loopB});
            t.network.addTtd("Tc" + tag + "o", {out});
        }
    };
    for (int i = 1; i < hubs; ++i) {
        connect(rng.range(0, i - 1), i, std::to_string(i));
    }
    if (hubs >= 3 && rng.chance(60)) {
        connect(hubs - 1, 0, "ring");  // one extra edge closes a cycle
    }
    return t;
}

Topology buildTopology(Rng& rng, const GenParams& params) {
    const std::int64_t unit = params.resolution.spatial.count();
    switch (params.family) {
        case Family::Corridor: return buildCorridor(rng, params.size, unit);
        case Family::Station: return buildStation(rng, params.size, unit);
        case Family::Junction: return buildJunction(rng, params.size, unit);
        case Family::Ring: return buildRing(rng, params.size, unit);
        case Family::SingleTrack: return buildSingleTrack(rng, params.size, unit);
        case Family::Network: return buildNetwork(rng, params.size, unit);
    }
    throw InputError("unknown topology family");
}

/// Smallest whole km/h giving at least `segments` segments per step, so
/// discretization never rounds a sampled train down to zero movement.
std::int64_t speedKmhFor(int segments, const Resolution& resolution) {
    const std::int64_t rs = resolution.spatial.count();
    const std::int64_t rt = resolution.temporal.count();
    return (36 * segments * rs + 10 * rt - 1) / (10 * rt);
}

struct SampledTraffic {
    TrainSet trains;
    std::vector<StationId> origins;
    std::vector<StationId> destinations;
    std::vector<int> departureSteps;
    std::vector<sim::SimTrain> simTrains;
    std::vector<int> arrivalSteps;
};

}  // namespace

std::string_view familyName(Family family) {
    switch (family) {
        case Family::Corridor: return "corridor";
        case Family::Station: return "station";
        case Family::Junction: return "junction";
        case Family::Ring: return "ring";
        case Family::SingleTrack: return "single_track";
        case Family::Network: return "network";
    }
    return "unknown";
}

std::string_view scheduleKindName(ScheduleKind kind) {
    switch (kind) {
        case ScheduleKind::Feasible: return "feasible";
        case ScheduleKind::Tight: return "tight";
        case ScheduleKind::Infeasible: return "infeasible";
    }
    return "unknown";
}

std::optional<Family> parseFamily(std::string_view name) {
    for (Family family : allFamilies()) {
        if (name == familyName(family)) {
            return family;
        }
    }
    return std::nullopt;
}

std::optional<ScheduleKind> parseScheduleKind(std::string_view name) {
    for (ScheduleKind kind : allScheduleKinds()) {
        if (name == scheduleKindName(kind)) {
            return kind;
        }
    }
    return std::nullopt;
}

std::span<const Family> allFamilies() {
    static constexpr std::array<Family, 6> kFamilies = {
        Family::Corridor, Family::Station,     Family::Junction,
        Family::Ring,     Family::SingleTrack, Family::Network,
    };
    return kFamilies;
}

std::span<const ScheduleKind> allScheduleKinds() {
    static constexpr std::array<ScheduleKind, 3> kKinds = {
        ScheduleKind::Feasible, ScheduleKind::Tight, ScheduleKind::Infeasible};
    return kKinds;
}

GeneratedScenario generate(const GenParams& params) {
    ETCS_REQUIRE_MSG(params.trains >= 0, "train count must be nonnegative");
    ETCS_REQUIRE_MSG(params.resolution.spatial.count() > 0 &&
                         params.resolution.temporal.count() > 0,
                     "resolution must be positive");
    Rng rng(params.seed);
    Topology topology = buildTopology(rng, params);
    topology.network.validate();

    GeneratedScenario out;
    out.params = params;
    if (params.trains == 0) {
        // An empty schedule is vacuously satisfiable; coerce the kind so
        // the name and manifest never claim tightness or infeasibility.
        out.params.schedule = ScheduleKind::Feasible;
    }
    out.name = std::string(familyName(out.params.family)) + "_s" +
               std::to_string(out.params.seed) + "_n" + std::to_string(out.params.size) +
               "_t" + std::to_string(out.params.trains) + "_" +
               std::string(scheduleKindName(out.params.schedule));
    out.network = std::move(topology.network);

    if (params.trains == 0) {
        out.simCompleted = true;  // trivially: nothing to move
        return out;
    }

    const SegmentGraph graph(out.network, params.resolution);
    const sim::Simulator simulator(graph,
                                   std::vector<bool>(graph.numNodes(), true));
    const int numStations = static_cast<int>(topology.stations.size());
    const std::int64_t rs = params.resolution.spatial.count();

    // Sample traffic until the greedy simulation on the finest layout
    // completes with every train entering exactly at its departure step (the
    // encoding pins exact departures, so a delayed entry would invalidate
    // the witness). Contention-heavy draws are retried; the requested train
    // count is reduced as a last resort. A single staggered train always
    // completes, so the loop terminates.
    SampledTraffic sample;
    bool sampled = false;
    const int maxAttempts = 6 * std::max(1, params.trains) + 6;
    for (int attempt = 0; attempt < maxAttempts && !sampled; ++attempt) {
        const int count = std::max(1, params.trains - attempt / 6);
        const bool sameDirection = topology.singleTrack && rng.chance(70);
        SampledTraffic candidate;
        int maxDeparture = 0;
        bool valid = true;
        for (int i = 0; i < count; ++i) {
            const int speedClass = rng.range(1, 3);
            const auto speed =
                Speed::fromKmPerHour(speedKmhFor(speedClass, params.resolution));
            const auto length =
                Meters(rng.range(static_cast<int>(std::max<std::int64_t>(1, rs / 2)),
                                 static_cast<int>(rs)));
            const TrainId id =
                candidate.trains.addTrain("tr" + std::to_string(i), speed, length);
            int a = rng.range(0, numStations - 1);
            int b = numStations > 1 ? rng.range(0, numStations - 2) : a;
            if (numStations > 1 && b >= a) {
                ++b;
            }
            if (sameDirection && a > b) {
                std::swap(a, b);
            }
            const StationId origin = topology.stations[static_cast<std::size_t>(a)];
            const StationId destination = topology.stations[static_cast<std::size_t>(b)];
            const int departure = i * rng.range(1, 2) + rng.range(0, 1);
            maxDeparture = std::max(maxDeparture, departure);

            sim::SimTrain train;
            train.train = id;
            train.route = graph.shortestPath(graph.segmentOfStation(origin),
                                             graph.segmentOfStation(destination));
            train.departureStep = departure;
            train.lengthSegments = params.resolution.trainLengthSegments(length);
            train.speedSegments = params.resolution.segmentsPerStep(speed);
            if (train.route.size() < 2) {
                // Disconnected pick, or two stations discretizing onto the
                // same segment: such a run has a zero travel lower bound, so
                // no deadline distortion could ever make it infeasible.
                valid = false;
                break;
            }
            candidate.origins.push_back(origin);
            candidate.destinations.push_back(destination);
            candidate.departureSteps.push_back(departure);
            candidate.simTrains.push_back(std::move(train));
        }
        if (!valid) {
            continue;
        }
        const int maxSteps = std::min(
            500, maxDeparture + static_cast<int>(graph.numSegments()) * (count + 1) * 2 + 16);
        const auto result = simulator.run(candidate.simTrains, maxSteps);
        if (!result.completed) {
            continue;
        }
        bool punctual = true;
        for (int i = 0; i < count && punctual; ++i) {
            const auto step = static_cast<std::size_t>(candidate.departureSteps[static_cast<std::size_t>(i)]);
            punctual = result.timeline[step][static_cast<std::size_t>(i)].present;
        }
        if (!punctual) {
            continue;
        }
        candidate.arrivalSteps = result.arrivalStep;
        sample = std::move(candidate);
        sampled = true;
    }
    ETCS_REQUIRE_MSG(sampled, "scenario sampling did not converge");

    // Deadlines: start from the simulated arrivals (a witness), then distort
    // one of them for the tight/infeasible kinds.
    const std::size_t runs = sample.simTrains.size();
    std::vector<int> deadlines = sample.arrivalSteps;
    if (params.schedule == ScheduleKind::Tight) {
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < runs; ++i) {
            const auto& t = sample.simTrains[i];
            const int bound =
                sample.departureSteps[i] +
                rail::travelLowerBound(static_cast<int>(t.route.size()) - 1,
                                       t.lengthSegments, t.speedSegments);
            if (deadlines[i] - 1 >= bound) {
                candidates.push_back(i);
            }
        }
        if (!candidates.empty()) {
            const std::size_t pick =
                candidates[static_cast<std::size_t>(rng.range(0, static_cast<int>(candidates.size()) - 1))];
            --deadlines[pick];
        }
    } else if (params.schedule == ScheduleKind::Infeasible) {
        const auto pick = static_cast<std::size_t>(rng.range(0, static_cast<int>(runs) - 1));
        const auto& t = sample.simTrains[pick];
        const int bound = rail::travelLowerBound(static_cast<int>(t.route.size()) - 1,
                                                 t.lengthSegments, t.speedSegments);
        ETCS_REQUIRE_MSG(bound >= 1, "infeasible run needs a nontrivial route");
        deadlines[pick] = sample.departureSteps[pick] + bound - 1;
    }

    // A lone train departing at step 0 whose deadline was distorted down to
    // step 0 would give the schedule a zero horizon (core::Instance requires
    // a positive one). Translating the whole timetable one step later
    // preserves both the simulated witness and the distortion's verdict.
    int latestStep = 0;
    for (std::size_t i = 0; i < runs; ++i) {
        latestStep = std::max(latestStep, std::max(sample.departureSteps[i], deadlines[i]));
    }
    if (latestStep == 0) {
        for (std::size_t i = 0; i < runs; ++i) {
            ++sample.departureSteps[i];
            ++sample.arrivalSteps[i];
            ++deadlines[i];
        }
    }

    out.trains = std::move(sample.trains);
    for (std::size_t i = 0; i < runs; ++i) {
        TrainRun run;
        run.train = sample.simTrains[i].train;
        run.origin = sample.origins[i];
        run.departure = params.resolution.timeOf(sample.departureSteps[i]);
        run.stops.push_back(TimedStop{sample.destinations[i],
                                      params.resolution.timeOf(deadlines[i]), Seconds(0)});
        out.schedule.addRun(std::move(run));
    }
    out.simCompleted = true;
    out.simArrivalSteps = std::move(sample.arrivalSteps);
    return out;
}

std::string manifestJson(const GeneratedScenario& scenario) {
    const GenParams& p = scenario.params;
    std::string json = "{\n";
    auto field = [&json](const std::string& key, const std::string& value, bool quote) {
        json += "  \"" + key + "\": " + (quote ? "\"" + value + "\"" : value) + ",\n";
    };
    field("generator", "etcsgen", true);
    field("version", "1", false);
    field("name", scenario.name, true);
    field("family", std::string(familyName(p.family)), true);
    field("seed", std::to_string(p.seed), false);
    field("size", std::to_string(p.size), false);
    field("trains", std::to_string(p.trains), false);
    field("schedule", std::string(scheduleKindName(p.schedule)), true);
    field("rs_m", std::to_string(p.resolution.spatial.count()), false);
    field("rt_s", std::to_string(p.resolution.temporal.count()), false);
    field("nodes", std::to_string(scenario.network.numNodes()), false);
    field("tracks", std::to_string(scenario.network.numTracks()), false);
    field("ttds", std::to_string(scenario.network.numTtds()), false);
    field("stations", std::to_string(scenario.network.numStations()), false);
    field("total_m", std::to_string(scenario.network.totalLength().count()), false);
    field("runs", std::to_string(scenario.schedule.size()), false);
    field("horizon_s", std::to_string(scenario.schedule.horizon().count()), false);
    json += "  \"sim_completed\": ";
    json += scenario.simCompleted ? "true" : "false";
    json += "\n}\n";
    return json;
}

}  // namespace etcs::gen
