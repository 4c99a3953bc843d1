/// \file ablation_solver.cpp
/// Ablation A2 (our addition, see DESIGN.md): what phase saving, the one
/// CDCL feature the solver can still switch off (the portfolio's diversity
/// table does), contributes on a representative ETCS instance (the
/// simple-layout pure-TTD verification formula) and on a classic hard UNSAT
/// family (pigeonhole). EXPERIMENTS.md A2 records the measurements that
/// removed the other switches.
#include <benchmark/benchmark.h>

#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "sat/solver.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

struct FeatureSet {
    bool phaseSaving;
    const char* label;
};

constexpr FeatureSet kFeatureSets[] = {
    {true, "full"},
    {false, "no-phase-saving"},
};

/// Collect the CNF of the simple-layout verification instance once.
const cnf::CollectingBackend& etcsFormula() {
    static const cnf::CollectingBackend collected = [] {
        cnf::CollectingBackend backend;
        const auto study = studies::simpleLayout();
        const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                      study.resolution);
        core::Encoder encoder(backend, instance);
        const core::VssLayout pure(instance.graph());
        encoder.encode(&pure);
        return backend;
    }();
    return collected;
}

void BM_SolverFeaturesOnEtcs(benchmark::State& state) {
    const FeatureSet& features = kFeatureSets[state.range(0)];
    const auto& formula = etcsFormula();
    std::uint64_t conflicts = 0;
    for (auto _ : state) {
        sat::Solver solver;
        solver.options().phaseSaving = features.phaseSaving;
        for (sat::Var v = 0; v < formula.numVariables(); ++v) {
            solver.addVariable();
        }
        for (const auto& clause : formula.clauses()) {
            solver.addClause(clause);
        }
        const auto status = solver.solve();
        benchmark::DoNotOptimize(status);
        conflicts = solver.stats().conflicts;
        if (status != sat::SolveStatus::Unsat) {
            state.SkipWithError("the pure-TTD simple layout must be UNSAT");
        }
    }
    state.SetLabel(features.label);
    state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_SolverFeaturesOnEtcs)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

void BM_SolverFeaturesOnPigeonhole(benchmark::State& state) {
    const FeatureSet& features = kFeatureSets[state.range(0)];
    constexpr int kPigeons = 8;
    constexpr int kHoles = 7;
    for (auto _ : state) {
        sat::Solver solver;
        solver.options().phaseSaving = features.phaseSaving;
        std::vector<std::vector<sat::Var>> p(kPigeons, std::vector<sat::Var>(kHoles));
        for (auto& row : p) {
            std::vector<sat::Literal> atLeast;
            for (sat::Var& v : row) {
                v = solver.addVariable();
                atLeast.push_back(sat::Literal::positive(v));
            }
            solver.addClause(atLeast);
        }
        for (int j = 0; j < kHoles; ++j) {
            for (int i = 0; i < kPigeons; ++i) {
                for (int k = i + 1; k < kPigeons; ++k) {
                    solver.addClause({sat::Literal::negative(p[i][j]),
                                      sat::Literal::negative(p[k][j])});
                }
            }
        }
        const auto status = solver.solve();
        benchmark::DoNotOptimize(status);
        if (status != sat::SolveStatus::Unsat) {
            state.SkipWithError("pigeonhole must be UNSAT");
        }
    }
    state.SetLabel(features.label);
}
BENCHMARK(BM_SolverFeaturesOnPigeonhole)->DenseRange(0, 1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
