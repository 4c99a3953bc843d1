#include "core/tasks.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <vector>

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

std::unique_ptr<cnf::SatBackend> makeBackend(const TaskOptions& options) {
    auto backend = options.backendFactory ? options.backendFactory()
                   : options.threads == 1
                       ? cnf::makeInternalBackend()
                       : cnf::makePortfolioBackend(options.threads,
                                                   options.deterministicPortfolio);
    if (options.progress) {
        backend->setProgressCallback(options.progress, options.progressIntervalConflicts);
    }
    return backend;
}

double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fail-fast pre-pass: run the instance linter and report whether it proved
/// the schedule unsatisfiable. The schedule lints are sound w.r.t. the
/// encoding (see lint/rail_lint.hpp), so an Error-severity finding lets the
/// task return infeasible without encoding or solving anything.
bool lintRejects(const Instance& instance, const TaskOptions& options, const char* task) {
    if (!options.lintInstance) {
        return false;
    }
    lint::LintReport report;
    lint::lintSchedule(instance.graph(), instance.trains(), instance.schedule(), report);
    report.recordMetrics();
    if (report.hasErrors()) {
        obs::Registry::global()
            .counter(std::string("etcs.task.") + task + ".lint_rejected")
            .increment();
        if (obs::logEnabled(obs::LogLevel::Info)) {
            obs::log(obs::LogLevel::Info, "task", task,
                     ",\"lint_rejected\":true,\"errors\":" +
                         std::to_string(report.count(lint::Severity::Error)));
        }
        return true;
    }
    // Second, stronger gate: the fixpoint reachability analysis refutes
    // schedules the shortest-path bounds miss (R-codes, lint/reach.hpp) and
    // is equally sound w.r.t. the encoding.
    const PruneTable reach(instance);
    if (reach.provablyInfeasible()) {
        obs::Registry::global()
            .counter(std::string("etcs.task.") + task + ".reach_rejected")
            .increment();
        if (obs::logEnabled(obs::LogLevel::Info)) {
            obs::log(obs::LogLevel::Info, "task", task,
                     ",\"reach_rejected\":true,\"violations\":" +
                         std::to_string(reach.analysis().violations().size()));
        }
        return true;
    }
    return false;
}

/// One task's solver and the Encoder feeding it.
struct Session {
    Session(const Instance& instance, const TaskOptions& options)
        : backend(makeBackend(options)), encoder(*backend, instance, options.encoder) {}

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
    if (obs::logEnabled(obs::LogLevel::Info)) {
        obs::log(obs::LogLevel::Info, "task", task,
                 ",\"variables\":" + std::to_string(stats.numVariables) +
                     ",\"clauses\":" + std::to_string(stats.numClauses) +
                     ",\"solve_calls\":" + std::to_string(stats.solveCalls) +
                     ",\"conflicts\":" + std::to_string(stats.conflicts) +
                     ",\"seconds\":" + std::to_string(stats.runtimeSeconds));
    }
}

/// The pipeline of every task: the lint/reach gate, one backend with its
/// Encoder, then `body` — the prefix loop and the task's objective at the
/// reached horizon, returning whether the task has a solution — and
/// finally decode and finishStats.
template <typename Body>
std::optional<Solution> runTask(const Instance& instance, const TaskOptions& options,
                                const char* task, TaskStats& stats, Body&& body) {
    const auto start = Clock::now();
    if (lintRejects(instance, options, task)) {
        stats.runtimeSeconds = secondsSince(start);
        return std::nullopt;
    }
    Session session(instance, options);
    std::optional<Solution> solution;
    if (body(session)) {
        solution = session.encoder.decode();
    }
    finishStats(stats, *session.backend, task, start);
    return solution;
}

// ---- The prefix loop (BMC-style horizon unrolling, docs/UNROLLING.md) ----

/// First horizon worth probing: every train must be able to finish inside the
/// prefix (completion lower bound), and every pinned stop must lie strictly
/// inside it with at least one step to spare — a train still dwelling at the
/// prefix's last step cannot be done there, so shorter prefixes are UNSAT by
/// construction and probing them would waste solver calls.
int unrollStartHorizon(const Instance& instance, const Encoder& encoder) {
    int lo = encoder.completionLowerBound() + 1;
    for (const DiscreteRun& r : instance.runs()) {
        for (const DiscreteStop& stop : r.stops) {
            if (stop.arrivalStep) {
                lo = std::max(lo, *stop.arrivalStep + stop.dwellSteps + 1);
            }
        }
    }
    return std::clamp(lo, 1, instance.horizonSteps());
}

/// Where the prefix loop stopped. Unless a probe was SAT or cancelled, the
/// encoding has reached the full horizon and nothing was solved there yet.
struct Prefix {
    int horizon = 0;          ///< encoded horizon
    int completionFloor = 0;  ///< no completion before this step is possible
    bool sat = false;         ///< a probe found a model (under prefixAssumptions)
    bool cancelled = false;   ///< a probe was cancelled (SolveStatus::Unknown)
};

/// A probe of the horizon-k prefix assumes its open-stop guard (when one is
/// active) and that every train is done at step k-1.
std::vector<cnf::Literal> prefixAssumptions(Encoder& encoder, int horizon) {
    std::vector<cnf::Literal> assumptions;
    const cnf::Literal guard = encoder.horizonGuardLiteral();
    if (guard.valid()) {
        assumptions.push_back(guard);
    }
    assumptions.push_back(encoder.doneAllLiteral(horizon - 1));
    return assumptions;
}

/// The prefix loop: encode the horizon the task starts from — the full one,
/// or with TaskOptions::unroll the shortest worth probing — and while it is
/// shorter than the full horizon, probe it on the warm backend under
/// prefixAssumptions and extend one step per UNSAT probe. With `unroll` off
/// the loop only encodes. It never solves at the full horizon; the task's
/// objective does, and verification and generation solve there without the
/// completion assumption, so their UNSAT verdicts are assumption-free and
/// DRAT-certifiable against the fully unrolled formula. Soundness: a prefix
/// model under the assumptions extends
/// to a full-horizon model by keeping every train done, and conversely any
/// full-horizon model completing by step k-1 restricts to the prefix — see
/// docs/UNROLLING.md for the argument.
Prefix unrollPrefix(Session& session, const Instance& instance, const VssLayout* fixedLayout,
                    const TaskOptions& options, TaskStats& stats) {
    Encoder& encoder = session.encoder;
    const int fullHorizon = instance.horizonSteps();
    Prefix prefix;
    prefix.horizon = fullHorizon;
    prefix.completionFloor = encoder.completionLowerBound();
    if (options.unroll) {
        // Below the start horizon no completion is possible (see
        // unrollStartHorizon).
        prefix.horizon = unrollStartHorizon(instance, encoder);
        prefix.completionFloor = std::max(prefix.completionFloor, prefix.horizon - 1);
    }
    const int startHorizon = prefix.horizon;
    encoder.encodePrefix(fixedLayout, startHorizon);

    auto& registry = obs::Registry::global();
    int probes = 0;
    while (prefix.horizon < fullHorizon) {
        ++probes;
        registry.counter("etcs.unroll.probes").increment();
        cnf::SolveStatus status = cnf::SolveStatus::Unknown;
        {
            const obs::Span probeSpan("unroll.probe");
            status = session.backend->solve(prefixAssumptions(encoder, prefix.horizon));
        }
        if (status != cnf::SolveStatus::Unsat) {
            prefix.sat = status == cnf::SolveStatus::Sat;
            prefix.cancelled = status == cnf::SolveStatus::Unknown;
            break;
        }
        // No completion by step horizon-1.
        prefix.completionFloor = prefix.horizon;
        ++prefix.horizon;
        registry.counter("etcs.unroll.extensions").increment();
        const obs::Span extendSpan("unroll.extend");
        encoder.extendHorizon(prefix.horizon);
    }
    stats.solveCalls += static_cast<std::uint64_t>(probes);

    if (options.unroll) {
        stats.unrollProbes = probes;
        stats.unrollStartHorizon = startHorizon;
        stats.unrollFinalHorizon = prefix.horizon;
        registry.gauge("etcs.unroll.start_horizon").set(startHorizon);
        registry.gauge("etcs.unroll.final_horizon").set(prefix.horizon);
        if (obs::logEnabled(obs::LogLevel::Info)) {
            obs::log(obs::LogLevel::Info, "unroll", "horizon unrolling finished",
                     ",\"start\":" + std::to_string(startHorizon) +
                         ",\"final\":" + std::to_string(prefix.horizon) +
                         ",\"full\":" + std::to_string(fullHorizon) +
                         ",\"probes\":" + std::to_string(probes));
        }
    }
    return prefix;
}

// ---- Objectives at the reached horizon ------------------------------------

/// Feasibility without an objective: a SAT probe has answered already; at the
/// full horizon one assumption-free solve does.
bool solveReached(Session& session, const Prefix& prefix, TaskStats& stats) {
    if (prefix.sat || prefix.cancelled) {
        return prefix.sat;
    }
    ++stats.solveCalls;
    return session.backend->solve() == cnf::SolveStatus::Sat;
}

/// The section objective min sum(border_v) under `assumptions`; false when no
/// model was found (the formula is UNSAT or a solve was cancelled).
bool minimizeBorders(Session& session, std::span<const cnf::Literal> assumptions,
                     const TaskOptions& options, TaskStats& stats) {
    const obs::Span minimizeSpan("minimize.borders");
    const auto minimized = opt::minimizeTrueLiterals(
        *session.backend, session.encoder.freeBorderLiterals(), options.borderSearch, {},
        assumptions);
    stats.solveCalls += minimized.solveCalls;
    return minimized.feasible;
}

}  // namespace

VerificationResult verifySchedule(const Instance& instance, const VssLayout& layout,
                                  const TaskOptions& options) {
    ETCS_REQUIRE_MSG(instance.schedule().fullyTimed(),
                     "verification requires a fully timed schedule");
    const obs::Span span("task.verify");
    VerificationResult result;
    result.solution = runTask(instance, options, "verify", result.stats, [&](Session& session) {
        const Prefix prefix = unrollPrefix(session, instance, &layout, options, result.stats);
        return solveReached(session, prefix, result.stats);
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
        const Prefix prefix = unrollPrefix(session, instance, nullptr, options, result.stats);
        if (!options.minimizeSections || prefix.cancelled) {
            return solveReached(session, prefix, result.stats);
        }
        // Minimize borders inside a SAT prefix: completion by the prefix's
        // last step is objective-preserving for a fully timed schedule
        // (docs/UNROLLING.md), so the assumptions scope the search without
        // changing the optimum.
        std::vector<cnf::Literal> scope;
        if (prefix.sat) {
            scope = prefixAssumptions(session.encoder, prefix.horizon);
        }
        return minimizeBorders(session, scope, options, result.stats);
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
    int completionSteps = 0;
    result.solution = runTask(instance, options, "optimize", result.stats, [&](Session& session) {
        Encoder& encoder = session.encoder;
        // Primary objective: minimize the number of time steps until all
        // trains have left (paper's min sum !done^t). done^t is monotone, so
        // the optimum is the smallest step at which the done-all selector
        // can hold.
        result.completionLowerBound = encoder.completionLowerBound();
        const int hi = instance.horizonSteps() - 1;
        if (result.completionLowerBound > hi) {
            // The horizon admits no completion at all — a bound mismatch,
            // not a proof of infeasibility. Report it distinctly (and skip
            // encoding: no formula is needed to see it).
            result.verdict = OptimizeVerdict::HorizonTooShort;
            obs::Registry::global().counter("etcs.task.optimize.horizon_too_short").increment();
            return false;
        }

        const Prefix prefix = unrollPrefix(session, instance, fixedLayout, options, result.stats);
        if (prefix.cancelled) {
            return false;
        }
        if (prefix.sat) {
            // The first SAT horizon k completes at step k-1, and every
            // shorter prefix was refuted.
            completionSteps = prefix.horizon - 1;
        } else {
            const obs::Span minimizeSpan("minimize.completion_time");
            const auto search = opt::smallestFeasibleIndex(
                *session.backend, [&](int step) { return encoder.doneAllLiteral(step); },
                prefix.completionFloor, hi, options.timeSearch);
            result.stats.solveCalls += search.solveCalls;
            if (!search.feasible) {
                return false;
            }
            completionSteps = search.index;
        }

        if (options.lexicographicSections && fixedLayout == nullptr) {
            // Freeze the optimal completion time (and the prefix's open-stop
            // guard, when one is active), then minimize virtual borders.
            const cnf::Literal guard = encoder.horizonGuardLiteral();
            if (guard.valid()) {
                session.backend->addUnit(guard);
            }
            session.backend->addUnit(encoder.doneAllLiteral(completionSteps));
            return minimizeBorders(session, {}, options, result.stats);
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

}  // namespace etcs::core
