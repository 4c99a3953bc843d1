#include "sat/portfolio.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <thread>

#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace etcs::sat {

namespace {

/// Static diversification applied to workers 1..N-1 (worker 0 keeps the
/// library defaults, so a 1-thread portfolio behaves exactly like a plain
/// Solver). The table cycles for portfolios wider than its period.
struct DiversityConfig {
    int restartBase;
    double variableDecay;
    bool defaultPolarity;
    bool phaseSaving;
    bool randomPhases;  ///< also randomize saved phases in diversify()
};

constexpr DiversityConfig kDiversityConfigs[] = {
    {50, 0.95, true, true, false},    // fast Luby restarts, opposite polarity
    {400, 0.85, false, true, true},   // slow restarts, aggressive decay, noisy phases
    {100, 0.99, false, false, false}, // sluggish decay, no phase saving
    {30, 0.90, true, true, true},     // very fast restarts
    {800, 0.95, false, true, false},  // near-monolithic runs between restarts
    {150, 0.80, true, false, true},   // sharp decay, fresh phases each time
    {250, 0.97, false, true, true},
};

}  // namespace

struct PortfolioSolver::Worker {
    int id = 0;
    Solver solver;
    std::mutex inboxMutex;
    std::vector<std::vector<Literal>> inbox;        ///< foreign clauses to import
    std::vector<std::vector<Literal>> exportBuffer; ///< deterministic-mode staging
    std::unique_ptr<MemoryProofWriter> proof;       ///< winner-only DRAT capture
    SolveStatus lastStatus = SolveStatus::Unknown;
    std::uint64_t nextUserProgressAt = 0;
};

PortfolioSolver::PortfolioSolver(PortfolioOptions options) : options_(std::move(options)) {
    int threads = options_.numThreads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
    }
    threads = std::max(threads, 1);
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int id = 0; id < threads; ++id) {
        auto worker = std::make_unique<Worker>();
        worker->id = id;
        workers_.push_back(std::move(worker));
    }
}

PortfolioSolver::~PortfolioSolver() = default;

Var PortfolioSolver::addVariable() {
    Var v = kUndefVar;
    for (auto& worker : workers_) {
        v = worker->solver.addVariable();
    }
    return v;
}

int PortfolioSolver::numVariables() const noexcept {
    return workers_.front()->solver.numVariables();
}

bool PortfolioSolver::addClause(std::span<const Literal> literals) {
    ++clausesAdded_;
    bool ok = true;
    for (auto& worker : workers_) {
        ok = worker->solver.addClause(literals) && ok;
    }
    return ok;
}

bool PortfolioSolver::okay() const noexcept {
    return workers_.front()->solver.okay();
}

void PortfolioSolver::setProofWriter(ProofWriter* proof) {
    externalProof_ = proof;
    proofReplayed_ = false;
    for (auto& worker : workers_) {
        if (proof != nullptr) {
            if (!worker->proof) {
                worker->proof = std::make_unique<MemoryProofWriter>();
            }
            worker->solver.setProofWriter(worker->proof.get());
        } else {
            worker->solver.setProofWriter(nullptr);
            worker->proof.reset();
        }
    }
}

void PortfolioSolver::wireWorker(Worker& worker) {
    SolverOptions& opts = worker.solver.options();

    // Clause sharing. Proof capture forces a share-nothing portfolio so the
    // winner's derivation stays self-contained (see docs/PARALLEL.md).
    const bool sharing =
        options_.shareClauses && externalProof_ == nullptr && workers_.size() > 1;
    if (sharing) {
        opts.shareMaxSize = options_.shareMaxSize;
        opts.shareMaxLbd = options_.shareMaxLbd;
        if (options_.deterministic) {
            opts.onLearntExport = [this, &worker](std::span<const Literal> lits, int) {
                if (worker.exportBuffer.size() >= options_.inboxCapacity) {
                    dropped_.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                worker.exportBuffer.emplace_back(lits.begin(), lits.end());
            };
        } else {
            opts.onLearntExport = [this, &worker](std::span<const Literal> lits, int) {
                const std::vector<Literal> copy(lits.begin(), lits.end());
                for (auto& other : workers_) {
                    if (other->id == worker.id) {
                        continue;
                    }
                    const std::lock_guard<std::mutex> lock(other->inboxMutex);
                    if (other->inbox.size() >= options_.inboxCapacity) {
                        dropped_.fetch_add(1, std::memory_order_relaxed);
                        continue;
                    }
                    other->inbox.push_back(copy);
                }
            };
        }
        opts.onImport = [this, &worker](std::vector<std::vector<Literal>>& out) {
            const std::lock_guard<std::mutex> lock(worker.inboxMutex);
            if (worker.inbox.empty()) {
                return;
            }
            if (options_.onImportedClause) {
                for (const auto& clause : worker.inbox) {
                    options_.onImportedClause(worker.id, clause);
                }
            }
            out.swap(worker.inbox);
            worker.inbox.clear();
        };
    } else {
        opts.shareMaxSize = 0;
        opts.shareMaxLbd = 0;
        opts.onLearntExport = nullptr;
        opts.onImport = nullptr;
    }

    // Cancellation and user progress.
    if (options_.deterministic) {
        // Lock-step mode: no asynchronous cancellation; the user hook runs
        // at epoch barriers on the coordinating thread instead.
        opts.onProgress = nullptr;
    } else {
        opts.conflictLimit = -1;  // may be left over from a deterministic run
        opts.progressInterval = std::max<std::uint64_t>(options_.cancelCheckConflicts, 1);
        worker.nextUserProgressAt =
            worker.solver.stats().conflicts +
            std::max<std::uint64_t>(options_.progressInterval, 1);
        opts.onProgress = [this, &worker](const SolverProgress& progress) {
            if (stop_.load(std::memory_order_relaxed)) {
                return false;
            }
            if (worker.id == 0 && options_.onProgress &&
                progress.conflicts >= worker.nextUserProgressAt) {
                worker.nextUserProgressAt =
                    progress.conflicts +
                    std::max<std::uint64_t>(options_.progressInterval, 1);
                if (!options_.onProgress(progress)) {
                    userCancelled_.store(true, std::memory_order_relaxed);
                    stop_.store(true, std::memory_order_relaxed);
                    return false;
                }
            }
            return true;
        };
    }
}

void PortfolioSolver::runWorker(Worker& worker, std::span<const Literal> assumptions) {
    if (options_.onWorkerStart) {
        options_.onWorkerStart(worker.id);
    }
    worker.lastStatus = worker.solver.solve(assumptions);
    if (options_.onWorkerFinish) {
        options_.onWorkerFinish(worker.id, worker.lastStatus, worker.solver.stats());
    }
}

SolveStatus PortfolioSolver::soloProbe(std::span<const Literal> assumptions) {
    // Share-nothing bounded run of worker 0. Callbacks left over from a
    // previous solve's wiring are detached for the probe; a fall-through to
    // the full portfolio rewires every worker anyway.
    Worker& worker = *workers_.front();
    SolverOptions& opts = worker.solver.options();
    opts.shareMaxSize = 0;
    opts.shareMaxLbd = 0;
    opts.onLearntExport = nullptr;
    opts.onImport = nullptr;
    opts.onProgress = nullptr;
    opts.conflictLimit = static_cast<std::int64_t>(
        worker.solver.stats().conflicts +
        std::max<std::uint64_t>(options_.soloProbeConflicts, 1));
    runWorker(worker, assumptions);
    opts.conflictLimit = -1;
    return worker.lastStatus;
}

SolveStatus PortfolioSolver::solveRacing(std::span<const Literal> assumptions) {
    stop_.store(false, std::memory_order_relaxed);
    std::atomic<int> firstFinished{-1};

    const auto race = [this, assumptions, &firstFinished](Worker& worker) {
        runWorker(worker, assumptions);
        if (worker.lastStatus != SolveStatus::Unknown) {
            int expected = -1;
            firstFinished.compare_exchange_strong(expected, worker.id,
                                                  std::memory_order_relaxed);
            stop_.store(true, std::memory_order_relaxed);
        }
    };

    if (workers_.size() == 1) {
        race(*workers_.front());
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers_.size());
        for (auto& worker : workers_) {
            threads.emplace_back([&race, &worker] { race(*worker); });
        }
        for (auto& thread : threads) {
            thread.join();
        }
    }

    winner_ = firstFinished.load(std::memory_order_relaxed);
    winnerStatus_ =
        winner_ >= 0 ? workers_[static_cast<std::size_t>(winner_)]->lastStatus
                     : SolveStatus::Unknown;
    return winnerStatus_;
}

void PortfolioSolver::exchangeEpochClauses() {
    // Deterministic exchange: worker order, then emission order. Inboxes are
    // drained at the next epoch's first import poll.
    for (auto& source : workers_) {
        for (auto& clause : source->exportBuffer) {
            for (auto& target : workers_) {
                if (target->id == source->id) {
                    continue;
                }
                const std::lock_guard<std::mutex> lock(target->inboxMutex);
                if (target->inbox.size() >= options_.inboxCapacity) {
                    dropped_.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                target->inbox.push_back(clause);
            }
        }
        source->exportBuffer.clear();
    }
}

SolveStatus PortfolioSolver::solveDeterministic(std::span<const Literal> assumptions) {
    const std::uint64_t epochBudget = std::max<std::uint64_t>(options_.epochConflicts, 1);
    while (true) {
        for (auto& worker : workers_) {
            worker->solver.options().conflictLimit = static_cast<std::int64_t>(
                worker->solver.stats().conflicts + epochBudget);
        }
        if (workers_.size() == 1) {
            runWorker(*workers_.front(), assumptions);
        } else {
            std::vector<std::thread> threads;
            threads.reserve(workers_.size());
            for (auto& worker : workers_) {
                threads.emplace_back(
                    [this, &worker, assumptions] { runWorker(*worker, assumptions); });
            }
            for (auto& thread : threads) {
                thread.join();
            }
        }
        ++stats_.epochs;

        // Lowest-numbered finished worker wins — a deterministic tie-break.
        for (auto& worker : workers_) {
            if (worker->lastStatus != SolveStatus::Unknown) {
                winner_ = worker->id;
                winnerStatus_ = worker->lastStatus;
                return winnerStatus_;
            }
        }

        exchangeEpochClauses();

        if (options_.onProgress) {
            SolverProgress progress;
            for (const auto& worker : workers_) {
                const SolverStats& s = worker->solver.stats();
                progress.conflicts += s.conflicts;
                progress.decisions += s.decisions;
                progress.propagations += s.propagations;
                progress.restarts += s.restarts;
                progress.learntDbSize += worker->solver.numLearnedClauses();
            }
            if (!options_.onProgress(progress)) {
                userCancelled_.store(true, std::memory_order_relaxed);
                winner_ = -1;
                winnerStatus_ = SolveStatus::Unknown;
                return winnerStatus_;
            }
        }
    }
}

void PortfolioSolver::aggregateStats() {
    SolverStats total;
    for (const auto& worker : workers_) {
        const SolverStats& s = worker->solver.stats();
        total.decisions += s.decisions;
        total.propagations += s.propagations;
        total.conflicts += s.conflicts;
        total.restarts += s.restarts;
        total.learnedClauses += s.learnedClauses;
        total.learnedLiterals += s.learnedLiterals;
        total.minimizedLiterals += s.minimizedLiterals;
        total.removedClauses += s.removedClauses;
        total.garbageCollections += s.garbageCollections;
        total.maxDecisionLevel = std::max(total.maxDecisionLevel, s.maxDecisionLevel);
        total.peakLearnts = std::max(total.peakLearnts, s.peakLearnts);
        total.exportedClauses += s.exportedClauses;
        total.importedClauses += s.importedClauses;
    }
    stats_.aggregate = total;
    stats_.exportedClauses = total.exportedClauses;
    stats_.importedClauses = total.importedClauses;
    stats_.droppedClauses = dropped_.load(std::memory_order_relaxed);
}

void PortfolioSolver::finishSolve(std::span<const Literal> assumptions,
                                  SolveStatus status) {
    ++stats_.solves;
    stats_.lastWinner = winner_;
    if (status == SolveStatus::Sat) {
        modelWorker_ = winner_;
    }
    aggregateStats();
    // Snapshot the winner's failed-assumption core: the worker's solver
    // overwrites its core on the next solve, but consumers (unsat-core
    // attribution, the explanation pipeline) read it after the race ended.
    lastCore_.clear();
    if (status == SolveStatus::Unsat && !assumptions.empty() && winner_ >= 0) {
        const auto& core =
            workers_[static_cast<std::size_t>(winner_)]->solver.conflictCore();
        lastCore_.assign(core.begin(), core.end());
    }
    if (externalProof_ != nullptr && !proofReplayed_ && status == SolveStatus::Unsat &&
        assumptions.empty() && winner_ >= 0) {
        const Worker& worker = *workers_[static_cast<std::size_t>(winner_)];
        if (worker.proof) {
            writeDrat(*externalProof_, worker.proof->proof());
            externalProof_->flush();
            proofReplayed_ = true;
        }
    }
}

SolveStatus PortfolioSolver::solve(std::span<const Literal> assumptions) {
    userCancelled_.store(false, std::memory_order_relaxed);
    winner_ = -1;
    winnerStatus_ = SolveStatus::Unknown;

    if (!diversified_) {
        diversified_ = true;
        for (auto& worker : workers_) {
            if (worker->id == 0) {
                continue;  // worker 0 keeps the library defaults
            }
            const DiversityConfig& config =
                kDiversityConfigs[static_cast<std::size_t>(worker->id - 1) %
                                  std::size(kDiversityConfigs)];
            SolverOptions& opts = worker->solver.options();
            opts.restartBase = config.restartBase;
            opts.variableDecay = config.variableDecay;
            opts.defaultPolarity = config.defaultPolarity;
            opts.phaseSaving = config.phaseSaving;
            worker->solver.diversify(
                options_.seed + static_cast<std::uint64_t>(worker->id) * 0x9e3779b9ULL,
                config.randomPhases);
        }
    }
    if (options_.soloProbeConflicts > 0 && workers_.size() > 1) {
        const SolveStatus probed = soloProbe(assumptions);
        if (probed != SolveStatus::Unknown) {
            winner_ = 0;
            winnerStatus_ = probed;
            ++stats_.gatedSolves;
            finishSolve(assumptions, probed);
            return probed;
        }
    }

    for (auto& worker : workers_) {
        wireWorker(*worker);
    }

    const SolveStatus status = options_.deterministic
                                   ? solveDeterministic(assumptions)
                                   : solveRacing(assumptions);
    finishSolve(assumptions, status);
    return status;
}

Value PortfolioSolver::modelValue(Var v) const {
    ETCS_REQUIRE_MSG(modelWorker_ >= 0, "no portfolio model available");
    return workers_[static_cast<std::size_t>(modelWorker_)]->solver.modelValue(v);
}

Value PortfolioSolver::modelValue(Literal l) const {
    ETCS_REQUIRE_MSG(modelWorker_ >= 0, "no portfolio model available");
    return workers_[static_cast<std::size_t>(modelWorker_)]->solver.modelValue(l);
}

const std::vector<Literal>& PortfolioSolver::conflictCore() const { return lastCore_; }

}  // namespace etcs::sat
