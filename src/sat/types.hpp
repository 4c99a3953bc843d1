/// \file types.hpp
/// Fundamental SAT types: variables, literals, truth values.
#pragma once

#include <cstdint>
#include <compare>
#include <functional>
#include <ostream>
#include <span>
#include <vector>

namespace etcs::sat {

/// A Boolean variable, numbered from 0.
using Var = std::int32_t;
inline constexpr Var kUndefVar = -1;

/// A literal: a variable or its negation, encoded as 2*var + sign.
/// sign() == true means the negated literal.
class Literal {
public:
    constexpr Literal() noexcept = default;
    constexpr Literal(Var v, bool negated) noexcept : code_(2 * v + (negated ? 1 : 0)) {}

    /// The positive literal of `v`.
    [[nodiscard]] static constexpr Literal positive(Var v) noexcept { return Literal(v, false); }
    /// The negative literal of `v`.
    [[nodiscard]] static constexpr Literal negative(Var v) noexcept { return Literal(v, true); }
    /// Rebuild a literal from its integer code (inverse of code()).
    [[nodiscard]] static constexpr Literal fromCode(std::int32_t code) noexcept {
        Literal l;
        l.code_ = code;
        return l;
    }

    [[nodiscard]] constexpr Var var() const noexcept { return code_ >> 1; }
    [[nodiscard]] constexpr bool sign() const noexcept { return (code_ & 1) != 0; }
    /// Dense non-negative index usable for watch lists (2*var + sign).
    [[nodiscard]] constexpr std::int32_t code() const noexcept { return code_; }
    [[nodiscard]] constexpr bool valid() const noexcept { return code_ >= 0; }

    [[nodiscard]] constexpr Literal operator~() const noexcept { return fromCode(code_ ^ 1); }

    friend constexpr auto operator<=>(Literal, Literal) noexcept = default;

private:
    std::int32_t code_ = -2;  // invalid
};

inline constexpr Literal kUndefLiteral{};

inline std::ostream& operator<<(std::ostream& os, Literal l) {
    if (!l.valid()) {
        return os << "undef";
    }
    return os << (l.sign() ? "-" : "") << (l.var() + 1);
}

/// Three-valued logic result of a variable assignment lookup.
enum class Value : std::uint8_t { False = 0, True = 1, Undef = 2 };

[[nodiscard]] constexpr Value negate(Value v) noexcept {
    switch (v) {
        case Value::False: return Value::True;
        case Value::True: return Value::False;
        default: return Value::Undef;
    }
}

[[nodiscard]] constexpr Value fromBool(bool b) noexcept {
    return b ? Value::True : Value::False;
}

/// Result of a solve() call.
enum class SolveStatus : std::uint8_t {
    Sat,      ///< A satisfying assignment was found (model available).
    Unsat,    ///< Proven unsatisfiable under the given assumptions.
    Unknown,  ///< A resource limit was hit before a verdict.
};

inline std::ostream& operator<<(std::ostream& os, SolveStatus s) {
    switch (s) {
        case SolveStatus::Sat: return os << "SAT";
        case SolveStatus::Unsat: return os << "UNSAT";
        default: return os << "UNKNOWN";
    }
}

/// Counters describing the work a solve performed.
struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnedClauses = 0;
    std::uint64_t learnedLiterals = 0;
    std::uint64_t minimizedLiterals = 0;
    std::uint64_t removedClauses = 0;
    std::uint64_t garbageCollections = 0;
    std::uint64_t maxDecisionLevel = 0;  ///< deepest decision level ever reached
    std::uint64_t peakLearnts = 0;       ///< largest learnt-DB size ever held
    std::uint64_t exportedClauses = 0;   ///< learnt clauses handed to onLearntExport
    std::uint64_t importedClauses = 0;   ///< foreign clauses attached via onImport
};

/// Snapshot handed to a progress callback during search.
struct SolverProgress {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::size_t learntDbSize = 0;  ///< learned clauses currently held
};

/// Invoked from inside search every SolverOptions::progressInterval
/// conflicts. Return false to cancel the solve cooperatively: the solver
/// backtracks to the root level and returns SolveStatus::Unknown, leaving
/// its state valid for further addClause()/solve() calls.
using ProgressCallback = std::function<bool(const SolverProgress&)>;

/// Export hook for learnt-clause sharing (see sat/portfolio.hpp). Invoked
/// from inside search, before backtracking, for every learnt clause within
/// the configured size/LBD caps. The span is only valid for the duration of
/// the call — receivers must copy.
using LearntExportCallback = std::function<void(std::span<const Literal>, int lbd)>;

/// Import source for learnt-clause sharing. Polled at the root level before
/// the first descent of a solve and at every restart boundary; the callee
/// appends clauses (each implied by the clause database) to the buffer. The
/// buffer is cleared by the solver before every poll.
using ImportCallback = std::function<void(std::vector<std::vector<Literal>>&)>;

/// Tunable solver behaviour; defaults follow MiniSat-era practice.
struct SolverOptions {
    double variableDecay = 0.95;       ///< EVSIDS decay per conflict.
    bool phaseSaving = true;           ///< reuse last assigned polarity.
    int restartBase = 100;             ///< conflicts per Luby unit (>= 1).
    double learntSizeFactor = 0.33;    ///< initial learnt DB limit / #clauses.
    double learntSizeFloor = 1000.0;   ///< minimum learnt DB limit (tests lower
                                       ///< it to force reductions on small inputs).
    double learntSizeIncrement = 1.1;  ///< DB limit growth per reduction.
    std::int64_t conflictLimit = -1;   ///< stop after this many conflicts (<0: off).
    bool defaultPolarity = false;      ///< saved phase of a fresh variable, as a sign:
                                       ///< false decides the positive literal first,
                                       ///< and an unconstrained variable comes out true
                                       ///< (cnf::addFalseFirstLiteral relies on it).
    std::uint64_t progressInterval = 16384;  ///< conflicts between onProgress calls.
    ProgressCallback onProgress;       ///< progress/cancellation hook (may be empty).

    // Clause sharing (portfolio solving; see sat/portfolio.hpp). Learnt
    // clauses are exported while still at the conflict level, so their LBD is
    // exact; foreign clauses are imported only at the root level.
    int shareMaxSize = 0;              ///< export learnt clauses up to this size (0: off).
    int shareMaxLbd = 0;               ///< extra LBD cap on exports (0: size cap only).
    LearntExportCallback onLearntExport;  ///< receives each exported clause + LBD.
    ImportCallback onImport;           ///< foreign-clause source (may be empty).
};

}  // namespace etcs::sat
