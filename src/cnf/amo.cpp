#include "cnf/amo.hpp"

#include <vector>

#include "util/error.hpp"

namespace etcs::cnf {

void addPairwiseAtMostOne(SatBackend& backend, std::span<const Literal> literals) {
    for (std::size_t i = 0; i < literals.size(); ++i) {
        for (std::size_t j = i + 1; j < literals.size(); ++j) {
            backend.addClause({~literals[i], ~literals[j]});
        }
    }
}

void addAtMostOne(SatBackend& backend, std::span<const Literal> literals) {
    const std::size_t n = literals.size();
    if (n <= 3) {
        addPairwiseAtMostOne(backend, literals);
        return;
    }
    // Sinz sequential encoding: s_i means "one of literals[0..i] is true".
    std::vector<Literal> s;
    s.reserve(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        s.push_back(Literal::positive(backend.addVariable()));
    }
    backend.addClause({~literals[0], s[0]});
    for (std::size_t i = 1; i + 1 < n; ++i) {
        backend.addClause({~literals[i], s[i]});
        backend.addClause({~s[i - 1], s[i]});
        backend.addClause({~literals[i], ~s[i - 1]});
    }
    backend.addClause({~literals[n - 1], ~s[n - 2]});
}

void addExactlyOne(SatBackend& backend, std::span<const Literal> literals) {
    ETCS_REQUIRE_MSG(!literals.empty(), "exactly-one over an empty set is unsatisfiable");
    backend.addClause(literals);
    addAtMostOne(backend, literals);
}

}  // namespace etcs::cnf
