/// \file types.hpp
/// Fundamental SAT types: variables, literals, truth values.
#pragma once

#include <cstdint>
#include <compare>
#include <functional>
#include <ostream>

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

/// Tunable solver behaviour: resource limits, the initial learnt-DB limit
/// and the progress hook. The search heuristics themselves (EVSIDS decay
/// 0.95, Luby restarts of 100 conflicts a unit, phase saving, a fresh
/// variable decided true first) and the learnt-DB growth of 1.1 per
/// reduction are fixed in Solver.
struct SolverOptions {
    double learntSizeFactor = 0.33;    ///< initial learnt DB limit / #clauses.
    double learntSizeFloor = 1000.0;   ///< minimum learnt DB limit (tests lower
                                       ///< it to force reductions on small inputs).
    std::int64_t conflictLimit = -1;   ///< stop after this many conflicts (<0: off).
    std::uint64_t progressInterval = 16384;  ///< conflicts between onProgress calls.
    ProgressCallback onProgress;       ///< progress/cancellation hook (may be empty).
};

}  // namespace etcs::sat
