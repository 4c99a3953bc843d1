/// \file solver.hpp
/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// Feature set: two-watched-literal propagation with blockers, where a
/// binary clause implies or conflicts from its tagged watcher alone; a
/// literal-indexed value table; first-UIP conflict analysis with deep clause
/// minimization that keeps its redundancy verdicts for the whole analysis;
/// EVSIDS variable activities, phase saving, Luby restarts, activity-based
/// learned-clause database reduction, and incremental solving under
/// assumptions with failed-assumption core extraction.
///
/// Usage:
///   Solver s;
///   Var a = s.addVariable(), b = s.addVariable();
///   s.addClause({Literal::positive(a), Literal::positive(b)});
///   if (s.solve() == SolveStatus::Sat) { ... s.modelValue(a) ... }
///
/// Clauses may only be added at decision level 0, i.e. before the first
/// solve() or between solve() calls (the solver always returns at level 0).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sat/clause.hpp"
#include "sat/types.hpp"

namespace etcs::sat {

class ProofWriter;

class Solver {
public:
    Solver() = default;

    // Solver owns large internal state with self-references (the decision
    // heap points at the activity table); it is neither copyable nor movable.
    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;
    Solver(Solver&&) = delete;
    Solver& operator=(Solver&&) = delete;

    /// Create a fresh variable and return it.
    Var addVariable();

    [[nodiscard]] int numVariables() const noexcept { return static_cast<int>(level_.size()); }
    [[nodiscard]] std::size_t numClauses() const noexcept { return clauses_.size(); }
    [[nodiscard]] std::size_t numLearnedClauses() const noexcept { return learnts_.size(); }

    /// Add a clause. Returns false when the clause system is already
    /// unsatisfiable at the root level (in which case solve() is Unsat).
    bool addClause(std::span<const Literal> literals);
    bool addClause(std::initializer_list<Literal> literals) {
        return addClause(std::span<const Literal>(literals.begin(), literals.size()));
    }

    /// Decide satisfiability under the given assumption literals.
    SolveStatus solve(std::span<const Literal> assumptions);
    SolveStatus solve(std::initializer_list<Literal> assumptions) {
        return solve(std::span<const Literal>(assumptions.begin(), assumptions.size()));
    }
    SolveStatus solve() { return solve(std::span<const Literal>{}); }

    /// Value of a variable/literal in the most recent satisfying model.
    [[nodiscard]] Value modelValue(Var v) const;
    [[nodiscard]] Value modelValue(Literal l) const;

    /// After an Unsat result of solve(assumptions): a subset of the
    /// assumptions that is jointly unsatisfiable with the clauses.
    [[nodiscard]] const std::vector<Literal>& conflictCore() const noexcept {
        return conflictCore_;
    }

    /// False once the clause system is unsatisfiable regardless of assumptions.
    [[nodiscard]] bool okay() const noexcept { return ok_; }

    [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
    [[nodiscard]] SolverOptions& options() noexcept { return options_; }
    [[nodiscard]] const SolverOptions& options() const noexcept { return options_; }

    /// Attach a DRAT proof sink (nullptr to detach; not owned). Every
    /// derived clause (normalized inputs, learnt clauses, units) and every
    /// discarded learnt clause is logged, so an Unsat verdict of solve()
    /// without assumptions can be certified against the original formula
    /// by an independent checker (drat_check.hpp). When no writer is
    /// attached — the default — each logging site costs one branch.
    void setProofWriter(ProofWriter* proof) noexcept { proof_ = proof; }
    [[nodiscard]] ProofWriter* proofWriter() const noexcept { return proof_; }

    /// Rebuild the clause arena without the space of deleted clauses.
    /// Called automatically when a third of the arena is garbage; exposed
    /// so tests (and memory-sensitive embedders) can force a compaction.
    void compactClauseDatabase();

    /// Words currently wasted by deleted clauses (observability for tests).
    [[nodiscard]] std::size_t wastedArenaWords() const noexcept {
        return arena_.wastedWords();
    }

private:
    /// An entry of the watch list of a literal p, for a clause watching ~p.
    struct Watcher {
        /// The clause's ClauseRef, with kBinaryClauseTag set when the clause
        /// has two literals.
        ClauseRef taggedRef = kInvalidClause;
        /// A literal of the clause other than ~p; a true blocker lets
        /// propagation skip the clause. A binary clause's blocker is always
        /// its other literal.
        Literal blocker;

        [[nodiscard]] ClauseRef clause() const noexcept { return taggedRef & ~kBinaryClauseTag; }
        [[nodiscard]] bool binary() const noexcept { return (taggedRef & kBinaryClauseTag) != 0; }
    };

    /// seen_ marks. Conflict analysis marks kSeenSource on the literals it
    /// resolves and keeps; literalRedundant caches its verdicts on other
    /// literals for the rest of that analysis.
    enum SeenMark : std::uint8_t { kSeenNone, kSeenSource, kSeenRemovable, kSeenFailed };

    /// A suspended literal of literalRedundant's depth-first walk: the
    /// position in its reason clause to resume at.
    struct RedundancyFrame {
        std::uint32_t position;
        Literal literal;
    };

    /// Indexed max-heap over variable activities (the VSIDS order).
    class VarOrderHeap {
    public:
        explicit VarOrderHeap(const std::vector<double>& activity) : activity_(&activity) {}
        VarOrderHeap(const VarOrderHeap&) = default;
        VarOrderHeap& operator=(const VarOrderHeap&) = default;

        [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
        [[nodiscard]] bool contains(Var v) const noexcept {
            return v < static_cast<Var>(index_.size()) && index_[v] >= 0;
        }
        void grow(Var v) {
            if (v >= static_cast<Var>(index_.size())) {
                index_.resize(v + 1, -1);
            }
        }
        void insert(Var v);
        void increased(Var v);  ///< activity of v increased: restore heap order
        Var removeMax();

    private:
        [[nodiscard]] bool less(Var a, Var b) const noexcept {
            return (*activity_)[a] < (*activity_)[b];
        }
        void percolateUp(int pos);
        void percolateDown(int pos);

        const std::vector<double>* activity_;
        std::vector<Var> heap_;
        std::vector<int> index_;
    };

    [[nodiscard]] Value value(Var v) const noexcept {
        return values_[static_cast<std::size_t>(Literal::positive(v).code())];
    }
    [[nodiscard]] Value value(Literal l) const noexcept {
        return values_[static_cast<std::size_t>(l.code())];
    }
    /// First position of the antecedents in the reason clause `c` of `v`;
    /// they fill the c.size() - 1 positions from there. Propagation keeps a
    /// long reason's implied literal at position 0 but never writes a binary
    /// clause, which may hold it at either position.
    [[nodiscard]] static std::uint32_t firstAntecedent(Clause c, Var v) noexcept {
        return c[0].var() == v ? 1 : 0;
    }
    [[nodiscard]] int decisionLevel() const noexcept { return static_cast<int>(trailLim_.size()); }

    void newDecisionLevel() { trailLim_.push_back(static_cast<int>(trail_.size())); }
    void uncheckedEnqueue(Literal p, ClauseRef from);
    ClauseRef propagate();
    void cancelUntil(int level);
    Literal pickBranchLiteral();
    void analyze(ClauseRef conflict, std::vector<Literal>& outLearnt, int& outBacktrackLevel);
    bool literalRedundant(Literal p, std::uint32_t abstractLevels);
    void analyzeFinal(Literal failedAssumption);
    SolveStatus search(std::int64_t conflictBudget);
    void reduceLearnedDb();
    void attachClause(ClauseRef ref);
    void detachClause(ClauseRef ref);
    [[nodiscard]] bool locked(ClauseRef ref) const;
    void bumpVariable(Var v);
    void bumpClause(Clause c);
    void decayVariableActivity() { variableIncrement_ /= kVariableDecay; }
    void decayClauseActivity() { clauseIncrement_ /= kClauseDecay; }
    void rescaleVariableActivity();
    void rescaleClauseActivity();
    [[nodiscard]] std::uint32_t abstractLevel(Var v) const noexcept {
        return 1u << (level_[v] & 31);
    }
    void storeModel();

    static constexpr double kVariableDecay = 0.95;  ///< EVSIDS decay per conflict
    static constexpr double kClauseDecay = 0.999;   ///< learned-clause activity decay
    static constexpr int kRestartBase = 100;        ///< conflicts per Luby unit
    static constexpr double kLearntSizeIncrement = 1.1;  ///< learnt-DB limit growth
                                                         ///< per reduction

    SolverOptions options_;
    SolverStats stats_;
    ProofWriter* proof_ = nullptr;  ///< DRAT sink; nullptr = logging disabled

    ClauseArena arena_;
    std::vector<ClauseRef> clauses_;  ///< problem clauses of size >= 2
    std::vector<ClauseRef> learnts_;  ///< learned clauses

    std::vector<std::vector<Watcher>> watches_;  ///< indexed by literal code
    std::vector<Value> values_;                  ///< indexed by literal code
    std::vector<int> level_;
    std::vector<ClauseRef> reason_;
    std::vector<Literal> trail_;
    std::vector<int> trailLim_;
    int propagationHead_ = 0;

    std::vector<double> activity_;
    double variableIncrement_ = 1.0;
    double clauseIncrement_ = 1.0;
    VarOrderHeap order_{activity_};
    /// Saved phase per variable, as a sign: a fresh variable starts at 0 and
    /// is decided true first (cnf::addFalseFirstLiteral relies on it); then
    /// each unassignment saves the polarity the variable last held.
    std::vector<char> polarity_;

    std::vector<Literal> assumptions_;
    std::vector<Literal> conflictCore_;

    std::vector<SeenMark> seen_;  ///< per variable
    std::vector<RedundancyFrame> analyzeStack_;
    std::vector<Literal> analyzeToClear_;

    std::vector<Value> model_;
    bool ok_ = true;
    double maxLearnts_ = 0.0;
    std::uint64_t nextProgressAt_ = 0;  ///< conflict count of the next onProgress call
    bool cancelled_ = false;            ///< onProgress vetoed the current solve
};

}  // namespace etcs::sat
