/// \file reach.hpp
/// Solver-sound reachability analysis: a fixpoint abstract interpretation
/// over the discretized segment graph that computes, per (run, segment), the
/// set of time steps at which the train can possibly occupy that position.
///
/// The abstraction is sound with respect to the SAT encoding of
/// core/encoder.hpp: every (run, segment, step) cell the analysis rules out
/// is false in *some satisfiability-preserving transformation* of every
/// model (for fully timed runs, the prompt-model truncation; for all other
/// constraints, in every model outright). Consequences:
///
///  * the encoder may skip variables and clauses for excluded cells without
///    changing the SAT/UNSAT verdict or the optimal objectives
///    (EncoderOptions::pruneUnreachable, see docs/REACHABILITY.md for the
///    soundness argument);
///  * an excluded cell that the schedule *pins* is a solver-free proof of
///    unsatisfiability, strictly stronger than the L024 shortest-path bound
///    (diagnostics R001/R002, emitted by lintReachability).
///
/// The analysis lives in the lint layer (rail-level types only) so both the
/// linter and the core encoder (via core/pruning.hpp) can consume it. Both
/// hand it the runs of rail::discretize and reason with the one
/// rail::travelLowerBound, so the gate, the encoder's pruning and
/// `etcslint --reach` read one mapping.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lint/diagnostics.hpp"
#include "railway/discretize.hpp"
#include "railway/schedule.hpp"
#include "railway/segment_graph.hpp"
#include "railway/train.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace etcs::lint {

/// Interval hull of the allowed steps at one (run, segment): empty when
/// latest < earliest. The hull loses "gaps" (a pinned stop elsewhere can
/// forbid a middle band of steps); ReachAnalysis::possible() keeps the exact
/// per-cell answer.
struct StepWindow {
    int earliest = 0;
    int latest = -1;
    [[nodiscard]] bool empty() const noexcept { return latest < earliest; }
    [[nodiscard]] bool contains(int step) const noexcept {
        return step >= earliest && step <= latest;
    }
    [[nodiscard]] int width() const noexcept { return empty() ? 0 : latest - earliest + 1; }
};

/// A scheduled obligation the analysis proved unsatisfiable. Every violation
/// is a sound UNSAT proof for the encoded instance (the corresponding pin or
/// visit clause has no admissible cell left).
struct ReachViolation {
    enum class Kind {
        OriginUnreachable,  ///< departure cell excluded (origin pin empty)
        PinnedStopEmpty,    ///< a pinned (segment, step) cell is excluded
        OpenStopEmpty,      ///< an open stop's window is empty
        DwellUnplaceable,   ///< window nonempty but no dwell-length fit
    };
    std::size_t run = 0;
    int stopIndex = -1;  ///< -1 = the origin, otherwise index into stops
    Kind kind = Kind::OriginUnreachable;
    int step = -1;  ///< offending step for pinned-cell violations (-1 n/a)
};

/// The fixpoint analysis result. Construction runs the analysis to a
/// (bounded) fixpoint; all queries are O(1) table lookups afterwards.
class ReachAnalysis {
public:
    /// `runs` come from rail::discretize (core::Instance holds them too);
    /// `horizonSteps` counts the steps t_0 .. t_{H-1}. Requires
    /// speedSegments >= 1 and 0 <= departureStep < horizonSteps for every
    /// run; filter structurally broken runs (L020/L023) first.
    ReachAnalysis(const rail::SegmentGraph& graph, std::span<const rail::DiscreteRun> runs,
                  int horizonSteps);

    [[nodiscard]] std::size_t numRuns() const noexcept { return runs_.size(); }
    [[nodiscard]] int horizonSteps() const noexcept { return horizonSteps_; }
    [[nodiscard]] const rail::DiscreteRun& run(std::size_t index) const {
        return runs_.at(index);
    }

    /// Exact per-cell verdict: can `run` possibly occupy `segment` at `step`?
    /// False is a sound exclusion (see file comment); true is "don't know".
    [[nodiscard]] bool possible(std::size_t run, SegmentId segment, int step) const {
        if (step < 0 || step >= horizonSteps_) {
            return false;
        }
        return allowed_[run][segment.get() * static_cast<std::size_t>(horizonSteps_) +
                            static_cast<std::size_t>(step)] != 0;
    }

    /// Interval hull of the allowed steps at (run, segment).
    [[nodiscard]] StepWindow window(std::size_t run, SegmentId segment) const;

    /// Last step the run can possibly be present anywhere. For fully timed
    /// runs whose destination pin ends last this is the prompt-model cutoff
    /// (max over stops of arrival + dwell - 1); otherwise horizon - 1.
    [[nodiscard]] int runCutoffStep(std::size_t run) const { return cutoff_.at(run); }

    /// Whether the prompt-model truncation applied to this run.
    [[nodiscard]] bool promptCutoff(std::size_t run) const { return prompt_.at(run) != 0; }

    /// Narrowing iterations summed over all runs (>= 1 per run).
    [[nodiscard]] std::uint64_t iterations() const noexcept { return iterations_; }

    /// Scheduled obligations the analysis refuted; non-empty implies the
    /// encoded instance is unsatisfiable.
    [[nodiscard]] std::span<const ReachViolation> violations() const noexcept {
        return violations_;
    }
    [[nodiscard]] bool provablyInfeasible() const noexcept { return !violations_.empty(); }

    /// Admitted cells (possible() == true) across all runs, and the total
    /// run x segment x step cell count — the pruning headroom.
    [[nodiscard]] std::uint64_t possibleCells() const noexcept { return possibleCells_; }
    [[nodiscard]] std::uint64_t totalCells() const noexcept {
        return static_cast<std::uint64_t>(runs_.size()) * numSegments_ *
               static_cast<std::uint64_t>(horizonSteps_);
    }

private:
    void analyzeRun(const rail::SegmentGraph& graph, std::size_t runIndex);
    void collectViolations(std::size_t runIndex);

    std::vector<rail::DiscreteRun> runs_;
    int horizonSteps_ = 0;
    std::size_t numSegments_ = 0;
    // allowed_[run][segment * H + step] — 1 iff the cell may be occupied.
    std::vector<std::vector<char>> allowed_;
    std::vector<int> cutoff_;
    std::vector<char> prompt_;
    std::vector<ReachViolation> violations_;
    std::uint64_t iterations_ = 0;
    std::uint64_t possibleCells_ = 0;
};

/// Runs the analysis on a rail-level schedule, discretized by
/// rail::discretize. Runs that carry structural schedule defects the basic
/// linter already reports (L020 zero speed, L021 disconnected stops,
/// L022 time travel, L023 horizon overruns) are skipped; `scheduleRunIndex`
/// maps each analysis run back to its position in `schedule.runs()`.
struct ScheduleReach {
    std::optional<ReachAnalysis> analysis;  ///< nullopt when horizon invalid
    std::vector<std::size_t> scheduleRunIndex;
};
[[nodiscard]] ScheduleReach analyzeSchedule(const rail::SegmentGraph& graph,
                                            const rail::TrainSet& trains,
                                            const rail::Schedule& schedule);

/// Reachability lint pass (diagnostic family R0xx, see docs/LINTING.md):
///   R001 — scheduled position outside its reachability window (error;
///          strictly stronger than the L024 shortest-path bound),
///   R002 — dwell obligation cannot fit inside the window (error),
///   R003 — vacuous deadline: later obligations and the horizon already
///          force arrival at or before the pinned step (info).
/// Error findings are sound UNSAT proofs; no SAT solver is involved.
void lintReachability(const rail::SegmentGraph& graph, const rail::TrainSet& trains,
                      const rail::Schedule& schedule, LintReport& report);

}  // namespace etcs::lint
