/// \file trace.hpp
/// Outside-in tracing for the benchmark: an in-memory span recorder and a
/// cnf::SatBackend decorator that times every solve() and counts the clauses
/// and literals crossing the backend boundary. Nothing here reaches inside
/// the library; spans wrap calls into its public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof.hpp"

namespace perfbench {

namespace cnf = etcs::cnf;
namespace sat = etcs::sat;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Outcome tag a span may carry (solver calls record their answer).
enum class SpanStatus : std::uint8_t { None, Sat, Unsat, Unknown };

struct SpanRecord {
    const char* name = "";  ///< static string: layer.function
    double start = 0.0;     ///< seconds since the recorder was created
    double end = 0.0;
    int parent = -1;        ///< index of the enclosing span, -1 for a root
    int task = -1;          ///< workload task index
    int pass = -1;          ///< measurement pass
    SpanStatus status = SpanStatus::None;
};

/// Single-threaded span store. Spans nest strictly (the benchmark is one
/// thread), so a span's self time is its duration minus its children's.
class Recorder {
public:
    void setContext(int task, int pass) {
        task_ = task;
        pass_ = pass;
    }
    [[nodiscard]] int open(const char* name);
    void close(int index, SpanStatus status = SpanStatus::None);

    [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
    /// Index of the first span recorded after this call (for slicing).
    [[nodiscard]] std::size_t mark() const noexcept { return spans_.size(); }

    /// Write every span as a Chrome trace ("X" events, microseconds) —
    /// once, at the end of the run. Returns false when the file cannot be
    /// written.
    bool writeChromeTrace(const std::string& path) const;

private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<SpanRecord> spans_;
    int current_ = -1;
    int task_ = -1;
    int pass_ = -1;
};

/// RAII span; a null recorder makes it a no-op.
class Scope {
public:
    Scope(Recorder* recorder, const char* name)
        : recorder_(recorder), index_(recorder ? recorder->open(name) : -1) {}
    ~Scope() {
        if (recorder_) {
            recorder_->close(index_, status_);
        }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void setStatus(SpanStatus status) { status_ = status; }

private:
    Recorder* recorder_;
    int index_;
    SpanStatus status_ = SpanStatus::None;
};

/// Traffic across the backend boundary during one task.
struct BoundaryCounts {
    std::uint64_t solveCalls = 0;
    std::uint64_t satCalls = 0;
    std::uint64_t unsatCalls = 0;
    std::uint64_t clauses = 0;
    std::uint64_t literals = 0;
    double solveSeconds = 0.0;
};

/// Decorator over a SatBackend. Every solve() becomes a "sat.solve" span in
/// `recorder` (when given) and is timed into `counts`; every addClause() is
/// counted. With `formula` set, it also keeps a copy of every clause and
/// logs the inner solver's DRAT proof into `proof`, so an UNSAT answer can
/// be certified with sat::checkDrat.
class BoundaryBackend final : public cnf::SatBackend {
public:
    BoundaryBackend(std::unique_ptr<cnf::SatBackend> inner, Recorder* recorder,
                    BoundaryCounts& counts, sat::CnfFormula* formula = nullptr,
                    sat::ProofWriter* proof = nullptr);

    using cnf::SatBackend::addClause;
    using cnf::SatBackend::modelValue;
    using cnf::SatBackend::solve;

    cnf::Var addVariable() override { return inner_->addVariable(); }
    [[nodiscard]] int numVariables() const override { return inner_->numVariables(); }
    [[nodiscard]] std::size_t numClauses() const override { return inner_->numClauses(); }
    void addClause(std::span<const cnf::Literal> literals) override;
    cnf::SolveStatus solve(std::span<const cnf::Literal> assumptions) override;
    [[nodiscard]] bool modelValue(cnf::Literal l) const override { return inner_->modelValue(l); }
    [[nodiscard]] std::vector<cnf::Literal> conflictCore() const override {
        return inner_->conflictCore();
    }
    [[nodiscard]] const sat::SolverStats& stats() const override { return inner_->stats(); }
    bool setProgressCallback(sat::ProgressCallback callback,
                             std::uint64_t everyConflicts) override {
        return inner_->setProgressCallback(std::move(callback), everyConflicts);
    }
    bool setProofWriter(sat::ProofWriter* proof) override {
        return inner_->setProofWriter(proof);
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }

private:
    std::unique_ptr<cnf::SatBackend> inner_;
    Recorder* recorder_;
    BoundaryCounts* counts_;
    sat::CnfFormula* formula_;
};

}  // namespace perfbench
