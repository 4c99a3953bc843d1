/// \file amo.hpp
/// At-most-one and exactly-one constraints, as used on the encoder's
/// chain-selector groups (paper's C1 occupancy).
///
/// Groups of up to three literals get the pairwise encoding (no auxiliaries);
/// larger groups get Sinz's sequential encoding: n - 1 auxiliaries and 3n - 4
/// clauses.
#pragma once

#include <span>

#include "cnf/backend.hpp"

namespace etcs::cnf {

/// Add the pairwise at-most-one encoding of `literals`: one binary clause per
/// pair, no auxiliary variables. `addAtMostOne` uses it for groups of up to
/// three literals.
void addPairwiseAtMostOne(SatBackend& backend, std::span<const Literal> literals);

/// Add clauses enforcing that at most one of `literals` is true.
void addAtMostOne(SatBackend& backend, std::span<const Literal> literals);

/// Add clauses enforcing that exactly one of `literals` is true.
void addExactlyOne(SatBackend& backend, std::span<const Literal> literals);

}  // namespace etcs::cnf
