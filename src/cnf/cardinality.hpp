/// \file cardinality.hpp
/// Cardinality constraints: the totalizer encoding.
///
/// The Totalizer is the workhorse of the optimization engine: its monotone
/// output literals let the MaxSAT search tighten "at most k" bounds purely
/// through solver assumptions, keeping all learned clauses valid across
/// iterations.
#pragma once

#include <span>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::cnf {

/// Bailleux-Boutsidis totalizer over a set of input literals.
///
/// After construction, output(i) is a literal that is true iff at least i+1
/// of the inputs are true (both implication directions are encoded, so the
/// outputs are exact and usable for at-most and at-least bounds alike).
/// Outputs are allocated false-first (addFalseFirstLiteral): an output
/// decided true would raise inputs through the exact downward clauses, so a
/// minimization over the outputs starts from few true inputs
/// (docs/ENCODING.md §7).
class Totalizer {
public:
    /// Build the totalizer tree; adds O(n log n) variables/clauses.
    Totalizer(SatBackend& backend, std::span<const Literal> inputs);

    [[nodiscard]] std::size_t numInputs() const noexcept { return outputs_.size(); }

    /// Literal that is true iff >= count+1 inputs are true.
    [[nodiscard]] Literal output(std::size_t count) const { return outputs_.at(count); }
    [[nodiscard]] const std::vector<Literal>& outputs() const noexcept { return outputs_; }

    /// Assumption literal enforcing "at most k inputs are true".
    /// k must be < numInputs() (at most n is trivially true).
    [[nodiscard]] Literal atMostAssumption(std::size_t k) const { return ~outputs_.at(k); }

    /// Assumption literal enforcing "at least k inputs are true" (k >= 1).
    [[nodiscard]] Literal atLeastAssumption(std::size_t k) const { return outputs_.at(k - 1); }

    /// Permanently add "at most k" as a hard constraint.
    void addAtMost(SatBackend& backend, std::size_t k) const {
        backend.addUnit(atMostAssumption(k));
    }

private:
    std::vector<Literal> outputs_;
};

}  // namespace etcs::cnf
