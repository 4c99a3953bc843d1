#include "cnf/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"

#include <chrono>

namespace etcs::cnf {

namespace {

/// SatBackend implementation on top of the built-in CDCL solver.
class InternalBackend final : public SatBackend {
public:
    Var addVariable() override { return solver_.addVariable(); }
    int numVariables() const override { return solver_.numVariables(); }
    std::size_t numClauses() const override { return clausesAdded_; }

    void addClause(std::span<const Literal> literals) override {
        ++clausesAdded_;
        solver_.addClause(literals);
    }

    SolveStatus solve(std::span<const Literal> assumptions) override {
        const sat::SolverStats before = solver_.stats();
        const auto start = std::chrono::steady_clock::now();
        const SolveStatus status = [&] {
            const obs::Span span("sat.solve");
            return solver_.solve(assumptions);
        }();
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        recordSolveMetrics(before, seconds, status);
        return status;
    }

    bool modelValue(Literal l) const override {
        return solver_.modelValue(l) == sat::Value::True;
    }

    std::vector<Literal> conflictCore() const override { return solver_.conflictCore(); }

    const sat::SolverStats& stats() const override { return solver_.stats(); }

    bool setProgressCallback(sat::ProgressCallback callback,
                             std::uint64_t everyConflicts) override {
        solver_.options().onProgress = std::move(callback);
        solver_.options().progressInterval = std::max<std::uint64_t>(everyConflicts, 1);
        return true;
    }

    bool setProofWriter(sat::ProofWriter* proof) override {
        solver_.setProofWriter(proof);
        return true;
    }

    std::string name() const override { return "internal-cdcl"; }

private:
    void recordSolveMetrics(const sat::SolverStats& before, double seconds,
                            SolveStatus status) {
        const sat::SolverStats& after = solver_.stats();
        auto& registry = obs::Registry::global();
        registry.counter("etcs.sat.solves").increment();
        registry.counter("etcs.sat.conflicts").add(after.conflicts - before.conflicts);
        registry.counter("etcs.sat.propagations")
            .add(after.propagations - before.propagations);
        registry.counter("etcs.sat.decisions").add(after.decisions - before.decisions);
        registry.counter("etcs.sat.restarts").add(after.restarts - before.restarts);
        registry.histogram("etcs.sat.solve_seconds").observe(seconds);
        if (obs::tracingEnabled()) {
            obs::Tracer::counterValue("sat.conflicts", static_cast<double>(after.conflicts));
            obs::Tracer::counterValue("sat.learnt_db",
                                      static_cast<double>(solver_.numLearnedClauses()));
            // This solve's outcome and work, right after its sat.solve span.
            std::string args = "{\"status\":\"";
            args += status == SolveStatus::Sat     ? "sat"
                    : status == SolveStatus::Unsat ? "unsat"
                                                   : "unknown";
            args += "\",\"seconds\":" + std::to_string(seconds);
            args += ",\"conflicts\":" + std::to_string(after.conflicts - before.conflicts);
            args += ",\"propagations\":" +
                    std::to_string(after.propagations - before.propagations) + "}";
            obs::Tracer::instant("sat.solve.done", args);
        }
    }

    sat::Solver solver_;
    std::size_t clausesAdded_ = 0;
};

}  // namespace

std::unique_ptr<SatBackend> makeInternalBackend() {
    return std::make_unique<InternalBackend>();
}

}  // namespace etcs::cnf
