/// \file ablation_encodings.cpp
/// Ablation A1 (our addition, see DESIGN.md): the two search strategies,
/// `LinearDown` and `Binary`, on the border minimization and on the
/// completion-time search of the ETCS instances.
#include <benchmark/benchmark.h>

#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

const studies::CaseStudy& running() {
    static const auto study = studies::runningExample();
    return study;
}

const studies::CaseStudy& simple() {
    static const auto study = studies::simpleLayout();
    return study;
}

void BM_BorderSearchStrategy(benchmark::State& state) {
    const auto& study = simple();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    const auto strategy = static_cast<opt::SearchStrategy>(state.range(0));
    core::TaskOptions options;
    options.borderSearch = strategy;
    std::uint64_t solves = 0;
    for (auto _ : state) {
        const auto result = core::generateLayout(instance, options);
        benchmark::DoNotOptimize(result.sectionCount);
        solves = result.stats.solveCalls;
        if (!result.feasible) {
            state.SkipWithError("generation unexpectedly infeasible");
        }
    }
    state.SetLabel(std::string(opt::toString(strategy)));
    state.counters["solves"] = static_cast<double>(solves);
}
BENCHMARK(BM_BorderSearchStrategy)
    ->Arg(static_cast<int>(opt::SearchStrategy::LinearDown))
    ->Arg(static_cast<int>(opt::SearchStrategy::Binary))
    ->Unit(benchmark::kMillisecond);

void BM_TimeSearchStrategy(benchmark::State& state) {
    const auto& study = running();
    const core::Instance instance(study.network, study.trains, study.openSchedule,
                                  study.resolution);
    const auto strategy = static_cast<opt::SearchStrategy>(state.range(0));
    core::TaskOptions options;
    options.timeSearch = strategy;
    for (auto _ : state) {
        const auto result = core::optimizeSchedule(instance, options);
        benchmark::DoNotOptimize(result.completionSteps);
        if (!result.feasible) {
            state.SkipWithError("optimization unexpectedly infeasible");
        }
    }
    state.SetLabel(std::string(opt::toString(strategy)));
}
BENCHMARK(BM_TimeSearchStrategy)
    ->Arg(static_cast<int>(opt::SearchStrategy::LinearDown))
    ->Arg(static_cast<int>(opt::SearchStrategy::Binary))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
