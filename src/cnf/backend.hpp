/// \file backend.hpp
/// Solver-agnostic interface for building and solving CNF formulas.
///
/// All encoders in this library target SatBackend, so the same encoding can
/// run on the built-in CDCL solver (InternalBackend) or, when available, on
/// Z3 (Z3Backend) for cross-validation.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace etcs::sat {
class ProofWriter;
}

namespace etcs::cnf {

using sat::Literal;
using sat::SolveStatus;
using sat::Var;

class SatBackend {
public:
    virtual ~SatBackend() = default;

    /// Create a fresh Boolean variable.
    virtual Var addVariable() = 0;
    [[nodiscard]] virtual int numVariables() const = 0;
    [[nodiscard]] virtual std::size_t numClauses() const = 0;

    /// Add a clause (disjunction of literals) to the formula.
    virtual void addClause(std::span<const Literal> literals) = 0;
    void addClause(std::initializer_list<Literal> literals) {
        addClause(std::span<const Literal>(literals.begin(), literals.size()));
    }
    void addUnit(Literal l) { addClause({l}); }

    /// Decide satisfiability under the given assumptions.
    virtual SolveStatus solve(std::span<const Literal> assumptions) = 0;
    SolveStatus solve(std::initializer_list<Literal> assumptions) {
        return solve(std::span<const Literal>(assumptions.begin(), assumptions.size()));
    }
    SolveStatus solve() { return solve(std::span<const Literal>{}); }

    /// True iff the literal holds in the most recent satisfying model.
    [[nodiscard]] virtual bool modelValue(Literal l) const = 0;
    [[nodiscard]] bool modelValue(Var v) const { return modelValue(Literal::positive(v)); }

    /// After Unsat under assumptions: a subset of the assumptions that is
    /// jointly unsatisfiable with the formula.
    [[nodiscard]] virtual std::vector<Literal> conflictCore() const = 0;

    /// Solver work counters accumulated over every solve() so far. The
    /// internal backend exposes its CDCL counters directly; other backends
    /// fill in what their solver reports (unavailable entries stay 0).
    [[nodiscard]] virtual const sat::SolverStats& stats() const = 0;

    /// Install a cooperative progress/cancellation hook, invoked every
    /// `everyConflicts` conflicts during each solve (see sat::ProgressCallback;
    /// returning false makes solve() return SolveStatus::Unknown). Returns
    /// false when the backend cannot support progress reporting, in which
    /// case the callback is never invoked. Pass an empty callback to clear.
    virtual bool setProgressCallback(sat::ProgressCallback callback,
                                     std::uint64_t everyConflicts = 16384) {
        (void)callback;
        (void)everyConflicts;
        return false;
    }

    /// Attach a DRAT proof sink (see sat/proof.hpp; nullptr detaches, not
    /// owned). Returns false when the backend cannot log proofs — e.g. the
    /// Z3 cross-check backend — in which case nothing is ever written.
    virtual bool setProofWriter(sat::ProofWriter* proof) {
        (void)proof;
        return false;
    }

    /// Human-readable backend name (for reports and logs).
    [[nodiscard]] virtual std::string name() const = 0;
};

/// Allocate a literal that an objective wants false — a free VSS border, a
/// totalizer output — as the negation of a fresh variable.
///
/// Contract relied on: the internal CDCL solver decides a fresh variable
/// *true* first (Solver seeds every saved phase with 0, and
/// Solver::pickBranchLiteral then returns the positive literal).
/// The returned literal is therefore tried false until phase saving or
/// propagation says otherwise, so a minimization's first model starts near
/// the optimum instead of with every objective literal raised. Only the sign
/// differs from Literal::positive(addVariable()): variables, clauses and
/// verdicts are unchanged (docs/ENCODING.md §7).
[[nodiscard]] inline Literal addFalseFirstLiteral(SatBackend& backend) {
    return Literal::negative(backend.addVariable());
}

/// Create the built-in CDCL backend.
[[nodiscard]] std::unique_ptr<SatBackend> makeInternalBackend();

#ifdef ETCS_HAVE_Z3
/// Create the Z3 cross-check backend (only compiled when libz3 is found).
[[nodiscard]] std::unique_ptr<SatBackend> makeZ3Backend();
#endif

}  // namespace etcs::cnf
