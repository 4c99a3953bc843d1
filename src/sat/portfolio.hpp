/// \file portfolio.hpp
/// A parallel portfolio over the internal CDCL solver.
///
/// N diversified Solver instances (varying diversification seed, phase
/// polarity, Luby restart base, and VSIDS decay) attack the same formula on
/// std::threads. Short learnt clauses (size/LBD-capped) are exported into
/// the other workers' bounded inboxes and imported at restart boundaries;
/// the first worker to reach a verdict cancels the rest through the
/// cooperative progress hook. Incremental solving under assumptions works
/// exactly as on a single Solver: every worker replays the assumptions, the
/// winner's failed-assumption core is exposed, and so is the model of the
/// latest Sat solve's winner.
///
/// Two execution modes (see docs/PARALLEL.md):
///  * racing (default)  — workers run freely; clause exchange and the winner
///    depend on OS scheduling, so results can vary between runs (all
///    verdicts are sound, only tie-breaking varies);
///  * deterministic     — workers run in lock-step epochs of a fixed
///    conflict budget, clauses are exchanged only at epoch barriers in a
///    fixed order, and the lowest-numbered finished worker wins, so a fixed
///    (threads, seed) pair yields a reproducible verdict, model, and winner.
///
/// Proof logging is winner-only: attaching a ProofWriter disables clause
/// sharing, records each worker's private derivation in memory, and replays
/// the winner's proof into the writer on a terminal (assumption-free) UNSAT.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace etcs::sat {

class ProofWriter;
class Solver;

struct PortfolioOptions {
    /// Worker count; 0 picks std::thread::hardware_concurrency(). Fixed at
    /// construction of the PortfolioSolver.
    int numThreads = 0;
    /// Lock-step epoch mode: reproducible verdict/model/winner for a fixed
    /// (numThreads, seed) pair, at the cost of barrier synchronization.
    bool deterministic = false;
    /// Conflicts each worker may spend per epoch in deterministic mode.
    std::uint64_t epochConflicts = 4096;
    /// Base diversification seed (worker k derives its stream from seed + k).
    std::uint64_t seed = 1;

    // Clause sharing policy.
    bool shareClauses = true;  ///< disable to run a pure (share-nothing) portfolio
    int shareMaxSize = 8;      ///< export learnt clauses up to this many literals
    int shareMaxLbd = 6;       ///< ... and up to this LBD
    std::size_t inboxCapacity = 4096;  ///< per-worker inbox bound; excess is dropped

    /// Conflicts between stop-flag polls in racing mode (cancellation
    /// latency of losing workers).
    std::uint64_t cancelCheckConflicts = 128;

    /// Easy-instance gate: before launching the full portfolio, run worker 0
    /// alone (share-nothing, no progress hook) under this conflict budget.
    /// A verdict inside the budget finishes the solve *gated* — no thread
    /// spawns, no clause-sharing synchronization — which protects easy SAT
    /// calls from the sharing/cancellation overhead that can make a 2-thread
    /// portfolio slower than one solver. Budget exhausted (Unknown) falls
    /// through to the full portfolio with worker 0 warm. 0 disables the gate
    /// (the probe is deterministic either way: worker 0, fixed budget).
    std::uint64_t soloProbeConflicts = 0;

    /// User progress/cancellation hook. Racing mode forwards it from worker
    /// 0 only (single-threaded invocation, every progressInterval of worker
    /// 0's conflicts); deterministic mode invokes it between epochs with
    /// aggregated counters. Returning false cancels the whole portfolio.
    ProgressCallback onProgress;
    std::uint64_t progressInterval = 16384;

    /// Instrumentation: invoked (on the importing worker's thread) for every
    /// clause the worker imports. Used by the clause-sharing soundness tests;
    /// the implementation must be thread-safe in racing mode.
    std::function<void(int worker, std::span<const Literal>)> onImportedClause;

    /// Observability hooks, invoked on the worker's own thread around each
    /// worker's participation in a solve (or in an epoch).
    std::function<void(int worker)> onWorkerStart;
    std::function<void(int worker, SolveStatus, const SolverStats&)> onWorkerFinish;
};

/// Work counters of the portfolio as a whole.
struct PortfolioStats {
    std::uint64_t solves = 0;
    std::uint64_t epochs = 0;            ///< deterministic-mode epochs run
    std::uint64_t exportedClauses = 0;   ///< clauses offered to other workers
    std::uint64_t importedClauses = 0;   ///< clauses actually attached by importers
    std::uint64_t droppedClauses = 0;    ///< exports discarded on full inboxes
    std::uint64_t gatedSolves = 0;       ///< solves decided by the solo probe alone
    int lastWinner = -1;                 ///< worker that decided the last solve
    SolverStats aggregate;               ///< summed over all workers
};

/// Drop-in parallel replacement for Solver's solve surface (the subset the
/// backends need): variables and clauses are mirrored into every worker,
/// solve() races or lock-steps them, and model/core queries go to the winner.
class PortfolioSolver {
public:
    explicit PortfolioSolver(PortfolioOptions options = {});
    ~PortfolioSolver();

    PortfolioSolver(const PortfolioSolver&) = delete;
    PortfolioSolver& operator=(const PortfolioSolver&) = delete;

    Var addVariable();
    [[nodiscard]] int numVariables() const noexcept;
    [[nodiscard]] std::size_t numClauses() const noexcept { return clausesAdded_; }

    /// Add a clause to every worker. Returns false when the clause system is
    /// already unsatisfiable at the root level.
    bool addClause(std::span<const Literal> literals);
    bool addClause(std::initializer_list<Literal> literals) {
        return addClause(std::span<const Literal>(literals.begin(), literals.size()));
    }

    SolveStatus solve(std::span<const Literal> assumptions);
    SolveStatus solve(std::initializer_list<Literal> assumptions) {
        return solve(std::span<const Literal>(assumptions.begin(), assumptions.size()));
    }
    SolveStatus solve() { return solve(std::span<const Literal>{}); }

    /// Value in the most recent satisfying model: that of the worker that
    /// won the latest Sat solve. Later Unsat or Unknown solves leave it in
    /// place, as on a single Solver (no worker stores a model in them).
    [[nodiscard]] Value modelValue(Var v) const;
    [[nodiscard]] Value modelValue(Literal l) const;

    /// Failed-assumption core of the winning worker after an Unsat verdict
    /// under assumptions. Snapshotted when the solve finishes, so the
    /// reference stays valid (and the core attributable) even after the
    /// winner's solver is reused — consumers feed it to the provenance /
    /// explanation pipeline (core/explain.hpp).
    [[nodiscard]] const std::vector<Literal>& conflictCore() const;

    /// False once the clause system is unsatisfiable regardless of assumptions.
    [[nodiscard]] bool okay() const noexcept;

    [[nodiscard]] int numThreads() const noexcept {
        return static_cast<int>(workers_.size());
    }
    /// Worker id that decided the most recent solve (-1 before any verdict).
    [[nodiscard]] int lastWinner() const noexcept { return winner_; }

    [[nodiscard]] const PortfolioStats& stats() const noexcept { return stats_; }
    /// Summed SolverStats over all workers (backend stats() surface).
    [[nodiscard]] const SolverStats& solverStats() const noexcept {
        return stats_.aggregate;
    }

    /// Live-tunable options (numThreads and seed are fixed at construction).
    [[nodiscard]] PortfolioOptions& options() noexcept { return options_; }
    [[nodiscard]] const PortfolioOptions& options() const noexcept { return options_; }

    /// Winner-only DRAT capture: disables clause sharing, attaches a private
    /// in-memory proof to every worker, and replays the winner's derivation
    /// into `proof` on the first terminal (assumption-free) Unsat. Attach
    /// before adding clauses, like Solver::setProofWriter; nullptr detaches.
    void setProofWriter(ProofWriter* proof);

private:
    struct Worker;

    void wireWorker(Worker& worker);
    void runWorker(Worker& worker, std::span<const Literal> assumptions);
    /// Bounded share-nothing solve on worker 0 (the easy-instance gate).
    SolveStatus soloProbe(std::span<const Literal> assumptions);
    void exchangeEpochClauses();
    void aggregateStats();
    void finishSolve(std::span<const Literal> assumptions, SolveStatus status);
    SolveStatus solveRacing(std::span<const Literal> assumptions);
    SolveStatus solveDeterministic(std::span<const Literal> assumptions);

    PortfolioOptions options_;
    PortfolioStats stats_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::size_t clausesAdded_ = 0;
    bool diversified_ = false;       ///< workers diversified on first solve
    int winner_ = -1;
    SolveStatus winnerStatus_ = SolveStatus::Unknown;
    int modelWorker_ = -1;           ///< winner of the latest Sat solve
    ProofWriter* externalProof_ = nullptr;
    bool proofReplayed_ = false;
    std::vector<Literal> lastCore_;  ///< winner's failed-assumption core snapshot

    // Cross-thread coordination (racing mode).
    std::atomic<bool> stop_{false};
    std::atomic<bool> userCancelled_{false};
    std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace etcs::sat
