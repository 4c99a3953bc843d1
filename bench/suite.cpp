/// \file suite.cpp
/// Reproducible benchmark suite over the generated corpus (our addition,
/// see docs/GENERATOR.md): every topology family x schedule kind at a fixed
/// seed, verified on the finest layout with every available SAT backend.
///
/// The run doubles as a cross-backend differential check: all backends must
/// agree on every verdict, feasible-by-construction instances must be SAT,
/// and lint-provably-infeasible instances must be UNSAT. Metrics land in
/// BENCH_suite.json under suite.<instance>.<backend>.<field>; the counter
/// metrics (variables, clauses, conflicts, propagations, decisions) are
/// deterministic between identical runs, so `benchdiff --threshold 0` over
/// two runs is a determinism gate (CI perf-smoke does exactly that).
///
/// Exit code: 0 = all checks passed, 1 = verdict mismatch or wrong verdict.
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/tasks.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"

using namespace etcs;

namespace {

/// One fixed corpus entry. The seed is frozen: regenerating with the same
/// etcsgen parameters reproduces the instance byte for byte.
constexpr std::uint64_t kSuiteSeed = 9;
constexpr int kSuiteSize = 3;
constexpr int kSuiteTrains = 2;

struct BackendSpec {
    const char* name;
    core::TaskOptions options;
};

std::vector<BackendSpec> backends() {
    std::vector<BackendSpec> specs;
    {
        BackendSpec internal;
        internal.name = "internal";
        specs.push_back(internal);
    }
#ifdef ETCS_HAVE_Z3
    {
        BackendSpec z3;
        z3.name = "z3";
        z3.options.backendFactory = [] { return cnf::makeZ3Backend(); };
        specs.push_back(z3);
    }
#endif
    // The suite benchmarks the solvers, so even provably-infeasible
    // instances are handed to the backend instead of short-circuiting in
    // the linter.
    for (BackendSpec& spec : specs) {
        spec.options.lintInstance = false;
    }
    return specs;
}

void recordResult(const std::string& instanceName, const std::string& backendName,
                  const core::VerificationResult& result) {
    auto& registry = obs::Registry::global();
    const std::string prefix = "suite." + instanceName + "." + backendName + ".";
    // Named "verdict_sat" rather than "feasible" so benchdiff patterns can
    // target it without also substring-matching the instance names (which
    // end in _feasible/_infeasible).
    registry.gauge(prefix + "verdict_sat").set(result.feasible ? 1 : 0);
    registry.gauge(prefix + "variables").set(result.stats.numVariables);
    registry.gauge(prefix + "clauses").set(static_cast<double>(result.stats.numClauses));
    registry.gauge(prefix + "conflicts").set(static_cast<double>(result.stats.conflicts));
    registry.gauge(prefix + "propagations")
        .set(static_cast<double>(result.stats.propagations));
    registry.gauge(prefix + "decisions").set(static_cast<double>(result.stats.decisions));
    registry.gauge(prefix + "runtime_seconds").set(result.stats.runtimeSeconds);
}

/// Encode the instance twice (reachability pruning off/on, no solving) and
/// record the before/after formula size under suite.<instance>.pruning.*.
/// The gauges are deterministic, so the benchdiff threshold-0 determinism
/// gate guards the pruning effectiveness against silent regression.
void recordPruning(const std::string& instanceName, const core::Instance& instance) {
    auto& registry = obs::Registry::global();
    const std::string prefix = "suite." + instanceName + ".pruning.";
    for (const bool prune : {false, true}) {
        const auto backend = cnf::makeInternalBackend();
        core::EncoderOptions options;
        options.pruneUnreachable = prune;
        core::Encoder encoder(*backend, instance, options);
        encoder.encode(nullptr);
        const char* suffix = prune ? "_pruned" : "_full";
        registry.gauge(prefix + "variables" + suffix).set(backend->numVariables());
        registry.gauge(prefix + "clauses" + suffix)
            .set(static_cast<double>(backend->numClauses()));
    }
}

}  // namespace

int main() {
    std::cout << "BENCHMARK SUITE over the generated corpus (seed " << kSuiteSeed
              << ", size " << kSuiteSize << ", " << kSuiteTrains
              << " trains; verification on the finest layout)\n\n"
              << std::right << std::setw(34) << "instance" << std::setw(12) << "backend"
              << std::setw(12) << "verdict" << std::setw(8) << "vars" << std::setw(9)
              << "clauses" << std::setw(10) << "conflicts" << std::setw(12)
              << "runtime[s]" << "\n";

    const auto specs = backends();
    int failures = 0;
    for (gen::Family family : gen::allFamilies()) {
        for (gen::ScheduleKind kind : gen::allScheduleKinds()) {
            gen::GenParams params;
            params.family = family;
            params.schedule = kind;
            params.seed = kSuiteSeed;
            params.size = kSuiteSize;
            params.trains = kSuiteTrains;
            const auto scenario = gen::generate(params);
            const core::Instance instance(scenario.network, scenario.trains,
                                          scenario.schedule, params.resolution);
            const auto finest = core::VssLayout::finest(instance.graph());
            recordPruning(scenario.name, instance);

            std::optional<bool> agreed;
            for (const BackendSpec& spec : specs) {
                const auto result = core::verifySchedule(instance, finest, spec.options);
                recordResult(scenario.name, spec.name, result);
                std::cout << std::setw(34) << scenario.name << std::setw(12) << spec.name
                          << std::setw(12) << (result.feasible ? "SAT" : "UNSAT")
                          << std::setw(8) << result.stats.numVariables << std::setw(9)
                          << result.stats.numClauses << std::setw(10)
                          << result.stats.conflicts << std::setw(12) << std::fixed
                          << std::setprecision(3) << result.stats.runtimeSeconds << "\n";
                if (agreed && *agreed != result.feasible) {
                    std::cerr << "FAIL: backend verdict mismatch on " << scenario.name
                              << " (" << spec.name << ")\n";
                    ++failures;
                }
                if (!agreed) {
                    agreed = result.feasible;
                }
                if (kind == gen::ScheduleKind::Feasible && !result.feasible) {
                    std::cerr << "FAIL: feasible-by-construction instance "
                              << scenario.name << " reported UNSAT by " << spec.name
                              << "\n";
                    ++failures;
                }
                if (kind == gen::ScheduleKind::Infeasible && result.feasible) {
                    std::cerr << "FAIL: provably infeasible instance " << scenario.name
                              << " reported SAT by " << spec.name << "\n";
                    ++failures;
                }
            }
        }
    }
    std::cout << "\n";

    const char* metricsFile = "BENCH_suite.json";
    if (obs::Registry::global().writeJsonFile(metricsFile)) {
        std::cout << "metrics written to " << metricsFile << "\n";
    }
    if (failures > 0) {
        std::cerr << failures << " suite check(s) failed\n";
        return 1;
    }
    std::cout << "all verdicts agree across " << specs.size() << " backends\n";
    return 0;
}
