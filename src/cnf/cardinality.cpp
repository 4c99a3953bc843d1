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

void addAtMostK(SatBackend& backend, std::span<const Literal> literals, std::size_t k) {
    const std::size_t n = literals.size();
    if (k >= n) {
        return;  // trivially satisfied
    }
    if (k == 0) {
        for (Literal l : literals) {
            backend.addUnit(~l);
        }
        return;
    }
    // Sinz LTn,k: registers s[i][j] ("at least j+1 of the first i+1 literals").
    std::vector<std::vector<Literal>> s(n - 1, std::vector<Literal>(k));
    for (auto& row : s) {
        for (auto& lit : row) {
            lit = Literal::positive(backend.addVariable());
        }
    }
    backend.addClause({~literals[0], s[0][0]});
    for (std::size_t j = 1; j < k; ++j) {
        backend.addUnit(~s[0][j]);
    }
    for (std::size_t i = 1; i + 1 < n; ++i) {
        backend.addClause({~literals[i], s[i][0]});
        backend.addClause({~s[i - 1][0], s[i][0]});
        for (std::size_t j = 1; j < k; ++j) {
            backend.addClause({~literals[i], ~s[i - 1][j - 1], s[i][j]});
            backend.addClause({~s[i - 1][j], s[i][j]});
        }
        backend.addClause({~literals[i], ~s[i - 1][k - 1]});
    }
    backend.addClause({~literals[n - 1], ~s[n - 2][k - 1]});
}

}  // namespace etcs::cnf
