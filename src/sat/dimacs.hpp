/// \file dimacs.hpp
/// Reading and writing CNF formulas in DIMACS format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace etcs::sat {

/// Largest variable number the DIMACS and DRAT readers accept: its literal
/// code 2 * (2^30 - 1) + 1 is the largest that fits in Literal's int32.
inline constexpr std::uint64_t kMaxDimacsVariable = std::uint64_t{1} << 30;

/// The literal of the 1-based DIMACS variable `variable`, negated when
/// `negative`; the single conversion every DIMACS/DRAT reader goes through.
/// Throws etcs::InputError when `variable` is 0 or above kMaxDimacsVariable,
/// before any narrowing.
[[nodiscard]] Literal literalFromDimacs(std::uint64_t variable, bool negative);

/// The literal of a signed DIMACS integer (any value but 0; the full
/// long long range is checked, LLONG_MIN included).
[[nodiscard]] Literal literalFromDimacs(long long value);

/// A plain CNF formula: a variable count plus clauses of literals.
struct CnfFormula {
    int numVariables = 0;
    std::vector<std::vector<Literal>> clauses;
};

/// Parse a DIMACS CNF stream ("c" comments, "p cnf V C" header, clauses
/// terminated by 0). Throws etcs::InputError on malformed input.
[[nodiscard]] CnfFormula readDimacs(std::istream& in);

/// Write a formula in DIMACS CNF format.
void writeDimacs(std::ostream& out, const CnfFormula& formula);

/// Write a formula to `path`, the single emit path every tool shares (so
/// header variable/clause counts cannot drift between emitters). Flushes
/// and verifies the stream; on failure the partial file is removed and
/// false is returned.
[[nodiscard]] bool writeDimacsFile(const std::string& path, const CnfFormula& formula);

}  // namespace etcs::sat
