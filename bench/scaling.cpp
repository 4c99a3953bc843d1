/// \file scaling.cpp
/// Scaling study S1 (our addition, see DESIGN.md): how instance size and
/// runtime grow with
///   * corridor length (number of stations),
///   * train count,
///   * spatial/temporal resolution on the running example.
/// Printed as tables in the spirit of Table I.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "obs/metrics.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

/// Mirror one scaling data point into the metrics registry under
/// scaling.<series>.<point>.<field> so the final registry dump doubles as a
/// machine-readable result file.
void recordPoint(const std::string& series, const std::string& point,
                 const core::Instance& instance, const core::GenerationResult& result) {
    auto& registry = obs::Registry::global();
    const std::string prefix = "scaling." + series + "." + point + ".";
    registry.gauge(prefix + "segments")
        .set(static_cast<double>(instance.graph().numSegments()));
    registry.gauge(prefix + "steps").set(instance.horizonSteps());
    registry.gauge(prefix + "variables").set(result.stats.numVariables);
    registry.gauge(prefix + "clauses").set(static_cast<double>(result.stats.numClauses));
    registry.gauge(prefix + "sat").set(result.feasible ? 1 : 0);
    registry.gauge(prefix + "runtime_seconds").set(result.stats.runtimeSeconds);
    registry.gauge(prefix + "conflicts").set(static_cast<double>(result.stats.conflicts));
    registry.gauge(prefix + "propagations")
        .set(static_cast<double>(result.stats.propagations));
}

void corridorScaling() {
    std::cout << "S1a: corridor length scaling (3 trains, 2 km spacing, r_s = 0.5 km, "
                 "r_t = 1 min; generation task)\n\n"
              << std::right << std::setw(9) << "stations" << std::setw(10) << "segments"
              << std::setw(8) << "steps" << std::setw(9) << "vars" << std::setw(10)
              << "clauses" << std::setw(6) << "sat" << std::setw(12) << "runtime[s]"
              << "\n";
    for (int stations = 2; stations <= 6; ++stations) {
        const auto study = studies::corridor(stations, 3, Meters::fromKilometers(2.0),
                                             Resolution{Meters(500), Seconds(60)});
        const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                      study.resolution);
        const auto result = core::generateLayout(instance);
        recordPoint("corridor", "stations_" + std::to_string(stations), instance, result);
        std::cout << std::setw(9) << stations << std::setw(10)
                  << instance.graph().numSegments() << std::setw(8)
                  << instance.horizonSteps() << std::setw(9) << result.stats.numVariables
                  << std::setw(10) << result.stats.numClauses << std::setw(6)
                  << (result.feasible ? "yes" : "no") << std::setw(12) << std::fixed
                  << std::setprecision(3) << result.stats.runtimeSeconds << "\n";
    }
    std::cout << "\n";
}

void trainScaling() {
    std::cout << "S1b: train count scaling (4 stations; generation task)\n\n"
              << std::right << std::setw(7) << "trains" << std::setw(9) << "vars"
              << std::setw(10) << "clauses" << std::setw(6) << "sat" << std::setw(12)
              << "runtime[s]" << "\n";
    for (int trains = 1; trains <= 6; ++trains) {
        const auto study = studies::corridor(4, trains, Meters::fromKilometers(2.0),
                                             Resolution{Meters(500), Seconds(60)});
        const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                      study.resolution);
        const auto result = core::generateLayout(instance);
        recordPoint("trains", "trains_" + std::to_string(trains), instance, result);
        std::cout << std::setw(7) << trains << std::setw(9) << result.stats.numVariables
                  << std::setw(10) << result.stats.numClauses << std::setw(6)
                  << (result.feasible ? "yes" : "no") << std::setw(12) << std::fixed
                  << std::setprecision(3) << result.stats.runtimeSeconds << "\n";
    }
    std::cout << "\n";
}

void resolutionScaling() {
    std::cout << "S1c: resolution scaling on the running example (generation task)\n"
              << "     (coarse grids can lose feasibility -- discretization artifact;\n"
              << "      refining the grid keeps the schedule realizable)\n\n"
              << std::right << std::setw(10) << "r_s[km]" << std::setw(10) << "r_t[min]"
              << std::setw(10) << "segments" << std::setw(8) << "steps" << std::setw(9)
              << "vars" << std::setw(6) << "sat" << std::setw(12) << "runtime[s]" << "\n";
    const auto base = studies::runningExample();
    const struct {
        double rsKm;
        double rtMin;
    } grid[] = {{1.0, 1.0}, {0.5, 0.5}, {0.25, 0.25}};
    for (const auto& g : grid) {
        const Resolution resolution{Meters::fromKilometers(g.rsKm),
                                    Seconds::fromMinutes(g.rtMin)};
        const core::Instance instance(base.network, base.trains, base.timedSchedule,
                                      resolution);
        const auto result = core::generateLayout(instance);
        recordPoint("resolution",
                    "rs_" + std::to_string(static_cast<int>(g.rsKm * 1000)) + "m_rt_" +
                        std::to_string(static_cast<int>(g.rtMin * 60)) + "s",
                    instance, result);
        std::cout << std::setw(10) << g.rsKm << std::setw(10) << g.rtMin << std::setw(10)
                  << instance.graph().numSegments() << std::setw(8)
                  << instance.horizonSteps() << std::setw(9) << result.stats.numVariables
                  << std::setw(6) << (result.feasible ? "yes" : "no") << std::setw(12)
                  << std::fixed << std::setprecision(3) << result.stats.runtimeSeconds
                  << "\n";
    }
    std::cout << "\n";
}

/// Encode `instance` once (no solving) and return its per-family counts.
std::vector<core::FamilyCounts> encodeOnly(const core::Instance& instance,
                                           bool pruneUnreachable) {
    const auto backend = cnf::makeInternalBackend();
    core::EncoderOptions options;
    options.pruneUnreachable = pruneUnreachable;
    core::Encoder encoder(*backend, instance, options);
    encoder.encode(nullptr);
    return {encoder.familyCounts().begin(), encoder.familyCounts().end()};
}

void pruningScaling() {
    std::cout << "S1e: reachability pruning effectiveness (encode-only, per constraint\n"
                 "     family, full vs. EncoderOptions::pruneUnreachable;\n"
                 "     see docs/REACHABILITY.md)\n\n";
    const struct {
        const char* name;
        studies::CaseStudy study;
    } cases[] = {{"running_example", studies::runningExample()},
                 {"corridor_s4_t3", studies::corridor(4, 3, Meters::fromKilometers(2.0),
                                                      Resolution{Meters(500), Seconds(60)})},
                 {"nordlandsbanen", studies::nordlandsbanen()}};
    auto& registry = obs::Registry::global();
    for (const auto& c : cases) {
        const core::Instance instance(c.study.network, c.study.trains, c.study.timedSchedule,
                                      c.study.resolution);
        const auto full = encodeOnly(instance, false);
        const auto pruned = encodeOnly(instance, true);
        std::cout << c.name << " (" << instance.graph().numSegments() << " segments, "
                  << instance.horizonSteps() << " steps)\n"
                  << std::right << std::setw(20) << "family" << std::setw(12) << "vars full"
                  << std::setw(12) << "vars prune" << std::setw(13) << "clauses full"
                  << std::setw(14) << "clauses prune" << std::setw(9) << "drop[%]" << "\n";
        for (const core::FamilyCounts& before : full) {
            const auto it = std::find_if(pruned.begin(), pruned.end(),
                                         [&](const core::FamilyCounts& after) {
                                             return after.family == before.family;
                                         });
            const core::FamilyCounts after =
                it != pruned.end() ? *it : core::FamilyCounts{before.family, 0, 0};
            const double drop =
                before.clauses > 0
                    ? 100.0 * (1.0 - static_cast<double>(after.clauses) /
                                         static_cast<double>(before.clauses))
                    : 0.0;
            const std::string family(before.family);
            const std::string prefix = "scaling.pruning." + std::string(c.name) + "." + family;
            registry.gauge(prefix + ".variables_full").set(before.variables);
            registry.gauge(prefix + ".variables_pruned").set(after.variables);
            registry.gauge(prefix + ".clauses_full").set(static_cast<double>(before.clauses));
            registry.gauge(prefix + ".clauses_pruned").set(static_cast<double>(after.clauses));
            std::cout << std::setw(20) << family << std::setw(12) << before.variables
                      << std::setw(12) << after.variables << std::setw(13) << before.clauses
                      << std::setw(14) << after.clauses << std::setw(9) << std::fixed
                      << std::setprecision(1) << drop << "\n";
        }
        std::cout << "\n";
    }
}

}  // namespace

int main(int argc, char** argv) {
    // With arguments, run only the named series (corridor, trains,
    // resolution, pruning) — used by CI to smoke single series.
    const auto selected = [&](const char* series) {
        if (argc <= 1) {
            return true;
        }
        for (int i = 1; i < argc; ++i) {
            if (series == std::string(argv[i])) {
                return true;
            }
        }
        return false;
    };
    std::cout << "SCALING STUDY (extension to the paper's evaluation)\n\n";
    if (selected("corridor")) {
        corridorScaling();
    }
    if (selected("trains")) {
        trainScaling();
    }
    if (selected("resolution")) {
        resolutionScaling();
    }
    if (selected("pruning")) {
        pruningScaling();
    }
    const char* metricsFile = "BENCH_scaling.json";
    if (obs::Registry::global().writeJsonFile(metricsFile)) {
        std::cout << "metrics written to " << metricsFile << "\n";
    }
    return 0;
}
