/// \file ablation_solver.cpp
/// Ablation A2 (our addition, see DESIGN.md): contribution of individual
/// CDCL solver features -- conflict-clause minimization, restarts, phase
/// saving -- measured on a representative ETCS instance (the simple-layout
/// generation formula) and on a classic hard UNSAT family (pigeonhole).
#include <benchmark/benchmark.h>

#include "cnf/collect.hpp"
#include "sat/preprocess.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "sat/solver.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

struct FeatureSet {
    bool minimize;
    bool restarts;
    bool phaseSaving;
    const char* label;
};

constexpr FeatureSet kFeatureSets[] = {
    {true, true, true, "full"},
    {false, true, true, "no-minimize"},
    {true, false, true, "no-restarts"},
    {true, true, false, "no-phase-saving"},
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
        solver.options().minimizeLearned = features.minimize;
        solver.options().useRestarts = features.restarts;
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
BENCHMARK(BM_SolverFeaturesOnEtcs)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_SolverFeaturesOnPigeonhole(benchmark::State& state) {
    const FeatureSet& features = kFeatureSets[state.range(0)];
    constexpr int kPigeons = 8;
    constexpr int kHoles = 7;
    for (auto _ : state) {
        sat::Solver solver;
        solver.options().minimizeLearned = features.minimize;
        solver.options().useRestarts = features.restarts;
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
BENCHMARK(BM_SolverFeaturesOnPigeonhole)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

/// Preprocessing the ETCS formula before solving: measure the end-to-end
/// effect (simplification cost + solve on the reduced instance).
void BM_PreprocessThenSolve(benchmark::State& state) {
    const bool usePreprocessor = state.range(0) != 0;
    const auto& collected = etcsFormula();
    std::size_t clausesAfter = 0;
    for (auto _ : state) {
        sat::CnfFormula formula = collected.formula();
        if (usePreprocessor) {
            const auto pre = sat::preprocess(formula);
            if (pre.unsatisfiable) {
                state.SkipWithError("preprocessor must not decide this instance alone");
            }
        }
        clausesAfter = formula.clauses.size();
        sat::Solver solver;
        for (sat::Var v = 0; v < formula.numVariables; ++v) {
            solver.addVariable();
        }
        for (const auto& clause : formula.clauses) {
            solver.addClause(clause);
        }
        const auto status = solver.solve();
        benchmark::DoNotOptimize(status);
        if (status != sat::SolveStatus::Unsat) {
            state.SkipWithError("the pure-TTD simple layout must be UNSAT");
        }
    }
    state.SetLabel(usePreprocessor ? "preprocess+solve" : "solve-only");
    state.counters["clauses"] = static_cast<double>(clausesAfter);
}
BENCHMARK(BM_PreprocessThenSolve)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
