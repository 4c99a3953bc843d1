#include "cnf/cardinality.hpp"

#include "util/error.hpp"

namespace etcs::cnf {

namespace {

/// Merge two child sums into a parent sum, emitting both implication
/// directions:
///   (>=i of A) & (>=j of B)  ->  (>=i+j of R)
///   (<i+1 of A) & (<j+1 of B) ->  (<i+j+2 of R)   i.e.  A_{i+1} | B_{j+1} | ~R_{i+j+1}
std::vector<Literal> mergeSums(SatBackend& backend, const std::vector<Literal>& a,
                               const std::vector<Literal>& b) {
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    std::vector<Literal> result;
    result.reserve(na + nb);
    for (std::size_t i = 0; i < na + nb; ++i) {
        // False-first: an output decided true would raise inputs through
        // direction 2 (see addFalseFirstLiteral).
        result.push_back(addFalseFirstLiteral(backend));
    }
    // Direction 1: lower bounds propagate up.
    for (std::size_t i = 0; i <= na; ++i) {
        for (std::size_t j = 0; j <= nb; ++j) {
            if (i + j == 0) {
                continue;
            }
            std::vector<Literal> clause;
            if (i > 0) {
                clause.push_back(~a[i - 1]);
            }
            if (j > 0) {
                clause.push_back(~b[j - 1]);
            }
            clause.push_back(result[i + j - 1]);
            backend.addClause(clause);
        }
    }
    // Direction 2: upper bounds propagate up.
    for (std::size_t i = 0; i <= na; ++i) {
        for (std::size_t j = 0; j <= nb; ++j) {
            if (i + j == na + nb) {
                continue;
            }
            std::vector<Literal> clause;
            if (i < na) {
                clause.push_back(a[i]);
            }
            if (j < nb) {
                clause.push_back(b[j]);
            }
            clause.push_back(~result[i + j]);
            backend.addClause(clause);
        }
    }
    return result;
}

std::vector<Literal> buildTree(SatBackend& backend, std::span<const Literal> inputs) {
    if (inputs.size() == 1) {
        return {inputs[0]};
    }
    const std::size_t half = inputs.size() / 2;
    const auto left = buildTree(backend, inputs.subspan(0, half));
    const auto right = buildTree(backend, inputs.subspan(half));
    return mergeSums(backend, left, right);
}

}  // namespace

Totalizer::Totalizer(SatBackend& backend, std::span<const Literal> inputs) {
    ETCS_REQUIRE_MSG(!inputs.empty(), "totalizer over an empty input set");
    outputs_ = buildTree(backend, inputs);
}

}  // namespace etcs::cnf
