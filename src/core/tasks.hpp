/// \file tasks.hpp
/// The three design/verification tasks of paper Sec. II-B as a library API:
///   1. verifySchedule   — does a timed schedule work on a given TTD/VSS layout?
///   2. generateLayout   — find a VSS layout realizing a timed schedule, with
///                         as few sections as possible (min sum border_v).
///   3. optimizeSchedule — find layout + schedule minimizing completion time
///                         (min sum !done^t), optionally followed by a
///                         lexicographic section minimization.
/// plus variants of tasks 2 and 3 with other objectives: cost-weighted
/// borders (generateLayoutWeighted), per-train arrivals in priority order
/// (optimizeIndividualArrivals) and the borders-vs-completion trade-off
/// curve (tradeoffCurve). Every task runs one pipeline: the lint/reach gate,
/// one backend with its Encoder, the objective, then decode.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "sat/types.hpp"

#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "opt/minimize.hpp"

namespace etcs::core {

struct TaskOptions {
    EncoderOptions encoder;
    opt::SearchStrategy borderSearch = opt::SearchStrategy::LinearDown;
    /// Completion-time search. `Binary` gallops up from the completion lower
    /// bound (Encoder::completionLowerBound, tight on Table I) to the first
    /// SAT probe, then bisects below it.
    opt::SearchStrategy timeSearch = opt::SearchStrategy::Binary;
    /// Generation: minimize the number of virtual borders (paper's
    /// min sum border_v). When false, any feasible layout is returned.
    bool minimizeSections = true;
    /// Optimization: after minimizing completion time, also minimize the
    /// number of virtual borders at the optimal completion time.
    bool lexicographicSections = true;
    /// SAT backend factory; defaults to the built-in CDCL solver.
    std::function<std::unique_ptr<cnf::SatBackend>()> backendFactory;
    /// Progress/cancellation hook forwarded to the backend (see
    /// sat::ProgressCallback). Returning false aborts the running solve,
    /// and the task stops there: it reports not feasible, with no solution,
    /// whichever of its solves was cancelled (results have no "unknown"
    /// verdict yet). Ignored by backends without progress support (e.g. Z3).
    sat::ProgressCallback progress;
    /// Conflicts between progress callbacks.
    std::uint64_t progressIntervalConflicts = 16384;
    /// Run the instance linter (lint/rail_lint.hpp) before encoding and fail
    /// fast — no encode, no solver call — when it proves the schedule
    /// infeasible (shortest-path lower bounds, headway conflicts, horizon
    /// overruns). Lint counts are recorded in the metrics registry either
    /// way; set to false to opt out and always hand the instance to the
    /// solver.
    bool lintInstance = true;
};

/// Effort/size measurements common to all tasks (Table I columns), extended
/// with the backend's solver counters so results carry the full cost profile.
struct TaskStats {
    int numVariables = 0;
    std::size_t numClauses = 0;
    std::uint64_t solveCalls = 0;
    double runtimeSeconds = 0.0;
    // Solver work, accumulated over every solve of the task (0 for backends
    // that do not report a counter).
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t decisions = 0;
    std::uint64_t restarts = 0;
    std::uint64_t maxDecisionLevel = 0;
    std::uint64_t peakLearnts = 0;
};

struct VerificationResult {
    bool feasible = false;               ///< SAT: the schedule works on the layout
    std::optional<Solution> solution;    ///< a witness execution when feasible
    TaskStats stats;
};

struct GenerationResult {
    bool feasible = false;               ///< SAT: some VSS layout realizes the schedule
    std::optional<Solution> solution;    ///< layout + witness execution
    int sectionCount = 0;                ///< TTD/VSS sections of the layout
    TaskStats stats;
};

/// Why an optimization run did (or did not) produce a schedule.
enum class OptimizeVerdict {
    Feasible,         ///< optimum found; `completionSteps` is minimal
    Infeasible,       ///< no schedule exists within the horizon (UNSAT / lint)
    HorizonTooShort,  ///< the horizon is shorter than any possible completion
                      ///< (completionLowerBound > horizonSteps - 1): the
                      ///< instance was rejected without solving and might be
                      ///< feasible on a longer horizon
};

[[nodiscard]] std::string_view toString(OptimizeVerdict verdict);

struct OptimizationResult {
    bool feasible = false;               ///< schedule completable within the horizon
    OptimizeVerdict verdict = OptimizeVerdict::Infeasible;
    std::optional<Solution> solution;
    int sectionCount = 0;
    int completionSteps = 0;             ///< minimized number of time steps
    int completionLowerBound = 0;        ///< earliest step all trains could possibly
                                         ///< be done; with HorizonTooShort, a retry
                                         ///< needs horizonSteps > this bound
    TaskStats stats;
};

/// Task 1: verify a fully timed schedule against a fixed TTD/VSS layout.
[[nodiscard]] VerificationResult verifySchedule(const Instance& instance,
                                                const VssLayout& layout,
                                                const TaskOptions& options = {});

/// Task 2: generate a VSS layout on which the fully timed schedule works.
[[nodiscard]] GenerationResult generateLayout(const Instance& instance,
                                              const TaskOptions& options = {});

/// Task 3: choose layout and train movements minimizing completion time.
/// The instance's schedule may leave arrival times open; its horizon bounds
/// the search.
[[nodiscard]] OptimizationResult optimizeSchedule(const Instance& instance,
                                                  const TaskOptions& options = {});

/// Variant of task 3 on a fixed layout: the best schedule achievable on the
/// existing TTD/VSS sections. Comparing its completion time against the
/// free-layout optimum quantifies what the virtual subsections buy.
[[nodiscard]] OptimizationResult optimizeScheduleOnLayout(const Instance& instance,
                                                          const VssLayout& layout,
                                                          const TaskOptions& options = {});

/// Generation with per-node installation costs: minimize the total cost of
/// the virtual borders instead of their count. `costOf` is evaluated for
/// every candidate border node and must return a positive cost.
[[nodiscard]] GenerationResult generateLayoutWeighted(
    const Instance& instance, const std::function<int(SegNodeId)>& costOf,
    const TaskOptions& options = {});

/// Result of the per-train arrival optimization.
struct IndividualArrivalResult {
    bool feasible = false;
    /// doneSteps[r]: earliest step at which run r has left the network,
    /// after the arrivals of all higher-priority runs were fixed.
    std::vector<int> doneSteps;
    std::optional<Solution> solution;
    TaskStats stats;
};

/// The paper's alternative objective (Sec. III-C): instead of minimizing the
/// global completion time, minimize each train's own arrival,
/// lexicographically in priority order (`priority` lists run indices; empty
/// = schedule order). Trains earlier in the order get the best possible
/// arrival; later trains optimize within what remains. With every arrival
/// fixed, the solution's layout has the fewest sections (the secondary
/// objective optimizeSchedule minimizes too).
[[nodiscard]] IndividualArrivalResult optimizeIndividualArrivals(
    const Instance& instance, std::vector<std::size_t> priority = {},
    const TaskOptions& options = {});

/// One point of the borders-vs-completion trade-off curve.
struct TradeoffPoint {
    int extraBorders = 0;     ///< budget: at most this many virtual borders
    bool feasible = false;    ///< schedule completable within the horizon
    int completionSteps = 0;  ///< minimal completion under the budget
    int sectionCount = 0;     ///< sections of the witness layout
};

/// The trade-off curve and what computing it cost.
struct TradeoffCurve {
    std::vector<TradeoffPoint> points;  ///< one per budget k = 0, 1, ...
    TaskStats stats;                    ///< the whole sweep's cost
};

/// "How much does each additional virtual border buy?" For k =
/// 0..maxExtraBorders: the minimal completion time achievable with at most k
/// virtual borders (departures fixed, arrivals open), which quantifies the
/// paper's claim that VSS unveil scheduling potential one border at a time.
/// The curve is non-increasing in k and stops at the first k that admits
/// every candidate border. Encodes once and sweeps budgets via solver
/// assumptions; a horizon too short for any completion or a schedule the
/// gate rejects gives all points infeasible without a formula, and stats
/// with no solver work.
[[nodiscard]] TradeoffCurve tradeoffCurve(const Instance& instance, int maxExtraBorders,
                                          const TaskOptions& options = {});

}  // namespace etcs::core
