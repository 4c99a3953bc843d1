#include "core/tasks.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "cnf/cardinality.hpp"
#include "lint/rail_lint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace etcs::core {

std::string_view toString(OptimizeVerdict verdict) {
    switch (verdict) {
        case OptimizeVerdict::Feasible:
            return "feasible";
        case OptimizeVerdict::Infeasible:
            return "infeasible";
        case OptimizeVerdict::HorizonTooShort:
            return "horizon_too_short";
    }
    return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// The backend a task solves on: `backendFactory`'s when set, otherwise the
/// internal solver, with the `progress` hook attached.
std::unique_ptr<cnf::SatBackend> makeBackend(const TaskOptions& options) {
    auto backend =
        options.backendFactory ? options.backendFactory() : cnf::makeInternalBackend();
    if (options.progress) {
        backend->setProgressCallback(options.progress, options.progressIntervalConflicts);
    }
    return backend;
}

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The fail-fast gate's outcome: whether it proved the schedule infeasible,
/// and the reachability table it built on the way, which the encoder prunes
/// with, so a task runs the fixpoint once.
struct Gate {
    bool rejected = false;
    std::optional<PruneTable> reach;
};

/// Fail-fast pre-pass: run the instance linter and report whether it proved
/// the schedule unsatisfiable. The schedule lints are sound w.r.t. the
/// encoding (see lint/rail_lint.hpp), so an Error-severity finding lets the
/// task return infeasible without encoding or solving anything.
Gate runGate(const Instance& instance, const TaskOptions& options, const char* task) {
    Gate gate;
    if (!options.lintInstance) {
        return gate;
    }
    lint::LintReport report;
    lint::lintSchedule(instance.graph(), instance.trains(), instance.schedule(), report);
    report.recordMetrics();
    if (report.hasErrors()) {
        obs::Registry::global()
            .counter(std::string("etcs.task.") + task + ".lint_rejected")
            .increment();
        if (obs::tracingEnabled()) {
            obs::Tracer::instant("gate.rejected",
                                 "{\"gate\":\"lint\",\"errors\":" +
                                     std::to_string(report.count(lint::Severity::Error)) + "}");
        }
        gate.rejected = true;
        return gate;
    }
    // Second, stronger gate: the fixpoint reachability analysis refutes
    // schedules the shortest-path bounds miss (R-codes, lint/reach.hpp) and
    // is equally sound w.r.t. the encoding.
    {
        const obs::Span reachSpan("gate.reach");
        gate.reach.emplace(instance);
    }
    if (gate.reach->provablyInfeasible()) {
        obs::Registry::global()
            .counter(std::string("etcs.task.") + task + ".reach_rejected")
            .increment();
        if (obs::tracingEnabled()) {
            obs::Tracer::instant(
                "gate.rejected",
                "{\"gate\":\"reach\",\"violations\":" +
                    std::to_string(gate.reach->analysis().violations().size()) + "}");
        }
        gate.rejected = true;
    }
    return gate;
}

/// One task's solver and the Encoder feeding it.
struct Session {
    Session(const Instance& instance, const TaskOptions& options, std::optional<PruneTable> reach)
        : backend(makeBackend(options)),
          encoder(*backend, instance, options.encoder, std::move(reach)) {}

    std::unique_ptr<cnf::SatBackend> backend;
    Encoder encoder;
};

/// Fold formula size and the backend's solver counters into the task stats,
/// record the task runtime, and mirror the totals into the metrics registry.
void finishStats(TaskStats& stats, const cnf::SatBackend& backend, const char* task,
                 Clock::time_point start) {
    stats.numVariables = backend.numVariables();
    stats.numClauses = backend.numClauses();
    const sat::SolverStats& solver = backend.stats();
    stats.conflicts = solver.conflicts;
    stats.propagations = solver.propagations;
    stats.decisions = solver.decisions;
    stats.restarts = solver.restarts;
    stats.maxDecisionLevel = solver.maxDecisionLevel;
    stats.peakLearnts = solver.peakLearnts;
    stats.runtimeSeconds = secondsSince(start);

    auto& registry = obs::Registry::global();
    registry.counter(std::string("etcs.task.") + task + ".runs").increment();
    registry.histogram(std::string("etcs.task.") + task + ".seconds")
        .observe(stats.runtimeSeconds);
}

/// When tracing, one `task.done` instant whose args are the task's final
/// TaskStats. Seconds get 17 significant digits, so they read back exactly.
void traceTaskDone(const char* task, const TaskStats& stats) {
    if (!obs::tracingEnabled()) {
        return;
    }
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.17g", stats.runtimeSeconds);
    obs::Tracer::instant(
        "task.done",
        std::string("{\"task\":\"") + task +
            "\",\"variables\":" + std::to_string(stats.numVariables) +
            ",\"clauses\":" + std::to_string(stats.numClauses) +
            ",\"solve_calls\":" + std::to_string(stats.solveCalls) +
            ",\"conflicts\":" + std::to_string(stats.conflicts) +
            ",\"propagations\":" + std::to_string(stats.propagations) +
            ",\"decisions\":" + std::to_string(stats.decisions) +
            ",\"restarts\":" + std::to_string(stats.restarts) +
            ",\"max_decision_level\":" + std::to_string(stats.maxDecisionLevel) +
            ",\"peak_learnts\":" + std::to_string(stats.peakLearnts) +
            ",\"seconds\":" + seconds + "}");
}

/// The pipeline of every task: the lint/reach gate, one backend with its
/// Encoder, then `body` — encode and the task's objective, returning whether
/// the task has a solution — and finally decode, finishStats and the
/// `task.done` trace instant.
template <typename Body>
std::optional<Solution> runTask(const Instance& instance, const TaskOptions& options,
                                const char* task, TaskStats& stats, Body&& body) {
    const auto start = Clock::now();
    std::optional<Solution> solution;
    Gate gate = runGate(instance, options, task);
    if (gate.rejected) {
        stats.runtimeSeconds = secondsSince(start);
    } else {
        Session session(instance, options, std::move(gate.reach));
        if (body(session)) {
            solution = session.encoder.decode();
        }
        finishStats(stats, *session.backend, task, start);
    }
    traceTaskDone(task, stats);
    return solution;
}

/// Feasibility without an objective: one assumption-free solve, so an UNSAT
/// verdict is DRAT-certifiable against the encoded formula.
bool solve(Session& session, TaskStats& stats) {
    ++stats.solveCalls;
    return session.backend->solve() == cnf::SolveStatus::Sat;
}

/// The section objective min sum(border_v); infeasible when no model was
/// found (the formula is UNSAT or a solve was cancelled).
opt::MinimizeResult minimizeBorders(Session& session, const TaskOptions& options,
                                    TaskStats& stats) {
    const obs::Span minimizeSpan("minimize.borders");
    const auto minimized = opt::minimizeTrueLiterals(
        *session.backend, session.encoder.freeBorderLiterals(), options.borderSearch);
    stats.solveCalls += minimized.solveCalls;
    return minimized;
}

}  // namespace

VerificationResult verifySchedule(const Instance& instance, const VssLayout& layout,
                                  const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "verification requires a fully timed schedule");
    const obs::Span span("task.verify");
    VerificationResult result;
    result.solution = runTask(instance, options, "verify", result.stats, [&](Session& session) {
        session.encoder.encode(&layout);
        return solve(session, result.stats);
    });
    result.feasible = result.solution.has_value();
    return result;
}

GenerationResult generateLayout(const Instance& instance, const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "layout generation requires a fully timed schedule");
    const obs::Span span("task.generate");
    GenerationResult result;
    result.solution = runTask(instance, options, "generate", result.stats, [&](Session& session) {
        session.encoder.encode(nullptr);
        return options.minimizeSections
                   ? minimizeBorders(session, options, result.stats).feasible
                   : solve(session, result.stats);
    });
    result.feasible = result.solution.has_value();
    if (result.feasible) {
        result.sectionCount = result.solution->sectionCount;
    }
    return result;
}

namespace {

OptimizationResult optimizeImpl(const Instance& instance, const VssLayout* fixedLayout,
                                const TaskOptions& options) {
    const obs::Span span("task.optimize");
    OptimizationResult result;
    // Primary objective: minimize the number of time steps until all trains
    // have left (paper's min sum !done^t). done^t is monotone, so the optimum
    // is the smallest step at which the done-all selector can hold.
    result.completionLowerBound = instance.completionLowerBound();
    const int hi = instance.horizonSteps() - 1;
    if (result.completionLowerBound > hi) {
        // The horizon admits no completion at all — a bound mismatch, not a
        // proof of infeasibility. Report it distinctly, before the gate
        // (whose horizon lints would call it infeasible) and without a
        // formula.
        result.verdict = OptimizeVerdict::HorizonTooShort;
        obs::Registry::global().counter("etcs.task.optimize.horizon_too_short").increment();
        return result;
    }
    int completionSteps = 0;
    result.solution = runTask(instance, options, "optimize", result.stats, [&](Session& session) {
        Encoder& encoder = session.encoder;
        encoder.encode(fixedLayout);
        {
            const obs::Span minimizeSpan("minimize.completion_time");
            const auto search = opt::smallestFeasibleIndex(
                *session.backend, [&](int step) { return encoder.doneAllLiteral(step); },
                result.completionLowerBound, hi, options.timeSearch);
            result.stats.solveCalls += search.solveCalls;
            if (!search.feasible) {
                return false;
            }
            completionSteps = search.index;
        }

        if (options.lexicographicSections && fixedLayout == nullptr) {
            // Freeze the optimal completion time, then minimize virtual
            // borders.
            session.backend->addUnit(encoder.doneAllLiteral(completionSteps));
            return minimizeBorders(session, options, result.stats).feasible;
        }
        return true;
    });
    if (result.solution) {
        result.feasible = true;
        result.verdict = OptimizeVerdict::Feasible;
        result.completionSteps = completionSteps;
        result.sectionCount = result.solution->sectionCount;
    }
    return result;
}

}  // namespace

OptimizationResult optimizeSchedule(const Instance& instance, const TaskOptions& options) {
    return optimizeImpl(instance, nullptr, options);
}

OptimizationResult optimizeScheduleOnLayout(const Instance& instance, const VssLayout& layout,
                                            const TaskOptions& options) {
    return optimizeImpl(instance, &layout, options);
}

GenerationResult generateLayoutWeighted(const Instance& instance,
                                        const std::function<int(SegNodeId)>& costOf,
                                        const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "layout generation requires a fully timed schedule");
    ETCS_REQUIRE_MSG(static_cast<bool>(costOf), "cost function required");
    // One cost per candidate border node, in the order of
    // Encoder::freeBorderLiterals.
    const auto& graph = instance.graph();
    std::vector<int> weights;
    for (std::size_t n = 0; n < graph.numNodes(); ++n) {
        if (!graph.node(SegNodeId(n)).fixedBorder) {
            weights.push_back(costOf(SegNodeId(n)));
            ETCS_REQUIRE_MSG(weights.back() > 0, "border costs must be positive");
        }
    }
    const obs::Span span("task.generate_weighted");
    GenerationResult result;
    result.solution =
        runTask(instance, options, "generate_weighted", result.stats, [&](Session& session) {
            session.encoder.encode(nullptr);
            const obs::Span minimizeSpan("minimize.borders");
            const auto minimized = opt::minimizeWeightedTrueLiterals(
                *session.backend, session.encoder.freeBorderLiterals(), weights,
                options.borderSearch);
            result.stats.solveCalls += minimized.solveCalls;
            return minimized.feasible;
        });
    result.feasible = result.solution.has_value();
    if (result.feasible) {
        result.sectionCount = result.solution->sectionCount;
    }
    return result;
}

TradeoffCurve tradeoffCurve(const Instance& instance, int maxExtraBorders,
                            const TaskOptions& options) {
    ETCS_REQUIRE_MSG(maxExtraBorders >= 0, "border budget must be non-negative");
    // A budget of every candidate border (Encoder::freeBorderLiterals) or
    // more is unconstrained; the sweep stops there.
    const auto& graph = instance.graph();
    int candidates = 0;
    for (std::size_t n = 0; n < graph.numNodes(); ++n) {
        candidates += graph.node(SegNodeId(n)).fixedBorder ? 0 : 1;
    }
    TradeoffCurve curve;
    curve.points.resize(static_cast<std::size_t>(std::min(maxExtraBorders, candidates)) + 1);
    for (std::size_t k = 0; k < curve.points.size(); ++k) {
        curve.points[k].extraBorders = static_cast<int>(k);
    }
    const int lo = instance.completionLowerBound();
    const int hi = instance.horizonSteps() - 1;
    if (lo > hi) {
        return curve;  // the horizon admits no completion: nothing to encode
    }
    const obs::Span span("task.tradeoff");
    (void)runTask(instance, options, "tradeoff", curve.stats, [&](Session& session) {
        Encoder& encoder = session.encoder;
        encoder.encode(nullptr);
        std::optional<cnf::Totalizer> totalizer;
        if (candidates > 0) {
            totalizer.emplace(*session.backend, encoder.freeBorderLiterals());
        }
        for (TradeoffPoint& point : curve.points) {
            std::vector<cnf::Literal> budget;
            if (point.extraBorders < candidates) {
                budget.push_back(
                    totalizer->atMostAssumption(static_cast<std::size_t>(point.extraBorders)));
            }
            const auto search = opt::smallestFeasibleIndex(
                *session.backend, [&](int step) { return encoder.doneAllLiteral(step); }, lo,
                hi, options.timeSearch, budget);
            curve.stats.solveCalls += search.solveCalls;
            if (search.feasible) {
                point.feasible = true;
                point.completionSteps = search.index;
                point.sectionCount = encoder.decode().sectionCount;
            }
        }
        return false;  // every point decoded its own witness
    });
    return curve;
}

IndividualArrivalResult optimizeIndividualArrivals(const Instance& instance,
                                                   std::vector<std::size_t> priority,
                                                   const TaskOptions& options) {
    if (priority.empty()) {
        priority.resize(instance.numRuns());
        std::iota(priority.begin(), priority.end(), std::size_t{0});
    }
    std::vector<bool> listed(instance.numRuns(), false);
    for (const std::size_t run : priority) {
        ETCS_REQUIRE_MSG(run < listed.size() && !listed[run],
                         "priority must list every run exactly once");
        listed[run] = true;
    }
    ETCS_REQUIRE_MSG(priority.size() == instance.numRuns(),
                     "priority must list every run exactly once");
    const obs::Span span("task.individual_arrivals");
    IndividualArrivalResult result;
    result.doneSteps.assign(instance.numRuns(), -1);
    result.solution = runTask(
        instance, options, "individual_arrivals", result.stats, [&](Session& session) {
            Encoder& encoder = session.encoder;
            cnf::SatBackend& backend = *session.backend;
            encoder.encode(nullptr);
            const int horizon = instance.horizonSteps();
            // Every train must still be able to finish within the horizon
            // while the leaders grab their best arrivals -- otherwise the
            // greedy lexicographic choice could strand a lower-priority train.
            const cnf::Literal everyoneFinishes[] = {encoder.doneAllLiteral(horizon - 1)};
            ++result.stats.solveCalls;
            if (backend.solve(everyoneFinishes) != cnf::SolveStatus::Sat) {
                return false;
            }
            for (const std::size_t run : priority) {
                // Earliest conceivable done step: one step after arriving.
                // The bound is sound and everyone finishes by horizon - 1.
                const int lo = instance.earliestArrivalStep(run) + 1;
                ETCS_REQUIRE_MSG(lo <= horizon - 1,
                                 "a run done by the horizon cannot arrive before its bound");
                const auto search = opt::smallestFeasibleIndex(
                    backend, [&](int step) { return encoder.doneLiteral(run, step); }, lo,
                    horizon - 1, options.timeSearch, everyoneFinishes);
                result.stats.solveCalls += search.solveCalls;
                if (!search.feasible) {
                    return false;
                }
                result.doneSteps[run] = search.index;
                // Freeze this train's arrival before optimizing the next one.
                backend.addUnit(encoder.doneLiteral(run, search.index));
            }
            // With every arrival frozen, minimize sections as optimizeSchedule
            // does after its completion search. A cancelled solve leaves the
            // task without a solution, like the other tasks; only UNSAT would
            // contradict the searches above.
            const opt::MinimizeResult minimized = minimizeBorders(session, options, result.stats);
            ETCS_REQUIRE_MSG(minimized.feasible || minimized.cancelled,
                             "lexicographically fixed instance must stay satisfiable");
            return minimized.feasible;
        });
    result.feasible = result.solution.has_value();
    return result;
}

}  // namespace etcs::core
