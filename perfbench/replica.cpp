#include "replica.hpp"

#include "core/encoder.hpp"
#include "core/pruning.hpp"
#include "lint/rail_lint.hpp"
#include "opt/minimize.hpp"

namespace perfbench {

using namespace etcs;

namespace {

/// tasks.cpp lintRejects(): the schedule lints, then the reachability gate.
void runGates(const core::Instance& instance, Recorder& recorder, ReplicaOutcome& out) {
    lint::LintReport report;
    {
        const Scope span(&recorder, "lint.schedule");
        lint::lintSchedule(instance.graph(), instance.trains(), instance.schedule(), report);
        report.recordMetrics();
    }
    if (report.hasErrors()) {
        out.scheduleRejected = true;
        return;
    }
    const Scope span(&recorder, "lint.reach");
    const core::PruneTable reach(instance);
    out.reachRejected = reach.provablyInfeasible();
}

/// tasks.cpp finishStats(): formula size and solver counters.
void finishStats(core::TaskStats& stats, const cnf::SatBackend& backend,
                 const BoundaryCounts& counts) {
    stats.numVariables = backend.numVariables();
    stats.numClauses = backend.numClauses();
    stats.solveCalls = counts.solveCalls;
    const sat::SolverStats& solver = backend.stats();
    stats.conflicts = solver.conflicts;
    stats.propagations = solver.propagations;
    stats.decisions = solver.decisions;
    stats.restarts = solver.restarts;
    stats.maxDecisionLevel = solver.maxDecisionLevel;
    stats.peakLearnts = solver.peakLearnts;
}

}  // namespace

ReplicaOutcome runReplica(const TaskSpec& task, const LoadedInput& input, Recorder& recorder,
                          BoundaryCounts& counts) {
    const core::TaskOptions options;
    const core::Instance& instance = *input.instance;
    ReplicaOutcome out;
    if (options.lintInstance) {
        runGates(instance, recorder, out);
        if (out.scheduleRejected || out.reachRejected) {
            return out;
        }
    }

    BoundaryBackend backend(cnf::makeInternalBackend(), &recorder, counts);
    std::optional<core::Encoder> encoder;
    {
        const Scope span(&recorder, "core.encode");
        encoder.emplace(backend, instance, options.encoder);
    }
    Answer& answer = out.answer;
    switch (task.kind) {
        case TaskKind::Verify: {
            {
                const Scope span(&recorder, "core.encode");
                encoder->encode(&*input.layout);
            }
            answer.feasible = backend.solve() == cnf::SolveStatus::Sat;
            break;
        }
        case TaskKind::Generate: {
            {
                const Scope span(&recorder, "core.encode");
                encoder->encode(nullptr);
            }
            if (options.minimizeSections) {
                const Scope span(&recorder, "opt.minimize");
                answer.feasible = opt::minimizeTrueLiterals(backend, encoder->freeBorderLiterals(),
                                                            options.borderSearch)
                                      .feasible;
            } else {
                answer.feasible = backend.solve() == cnf::SolveStatus::Sat;
            }
            break;
        }
        case TaskKind::Optimize: {
            const int lo = encoder->completionLowerBound();
            const int hi = instance.horizonSteps() - 1;
            if (lo > hi) {
                break;  // HorizonTooShort: no encode, no solve
            }
            {
                const Scope span(&recorder, "core.encode");
                encoder->encode(nullptr);
            }
            opt::IndexSearchResult search;
            {
                const Scope span(&recorder, "opt.index_search");
                search = opt::smallestFeasibleIndex(
                    backend,
                    [&](int step) {
                        const Scope doneSpan(&recorder, "core.done_all");
                        return encoder->doneAllLiteral(step);
                    },
                    lo, hi, options.timeSearch);
            }
            if (!search.feasible) {
                break;
            }
            answer.feasible = true;
            answer.steps = search.index;
            if (options.lexicographicSections) {
                {
                    const Scope span(&recorder, "core.done_all");
                    backend.addUnit(encoder->doneAllLiteral(search.index));
                }
                const Scope span(&recorder, "opt.minimize");
                (void)opt::minimizeTrueLiterals(backend, encoder->freeBorderLiterals(),
                                                options.borderSearch);
            }
            break;
        }
    }
    if (answer.feasible) {
        const Scope span(&recorder, "core.decode");
        answer.solution = encoder->decode();
        if (task.kind != TaskKind::Verify) {
            answer.sections = answer.solution->sectionCount;
        }
    }
    finishStats(answer.stats, backend, counts);
    return out;
}

}  // namespace perfbench
