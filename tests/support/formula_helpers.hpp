/// \file formula_helpers.hpp
/// Shared CNF fixtures for the randomized solver test suites: random k-SAT
/// generation, model checking against a formula, pigeonhole instances, and
/// DRAT certification of UNSAT verdicts. Used by differential_test and
/// sat_solver_test.
#pragma once

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace etcs::test {

inline sat::CnfFormula makeRandomFormula(std::mt19937& rng, int numVariables,
                                         int numClauses, int clauseSize) {
    sat::CnfFormula f;
    f.numVariables = numVariables;
    std::uniform_int_distribution<int> varDist(0, numVariables - 1);
    std::bernoulli_distribution signDist(0.5);
    for (int c = 0; c < numClauses; ++c) {
        std::vector<sat::Literal> clause;
        for (int k = 0; k < clauseSize; ++k) {
            clause.push_back(sat::Literal(varDist(rng), signDist(rng)));
        }
        f.clauses.push_back(std::move(clause));
    }
    return f;
}

inline bool modelSatisfies(const sat::CnfFormula& f,
                           const std::vector<sat::Value>& model) {
    for (const auto& clause : f.clauses) {
        bool satisfied = false;
        for (sat::Literal l : clause) {
            const sat::Value v = model[static_cast<std::size_t>(l.var())];
            if ((l.sign() && v == sat::Value::False) ||
                (!l.sign() && v == sat::Value::True)) {
                satisfied = true;
                break;
            }
        }
        if (!satisfied) {
            return false;
        }
    }
    return true;
}

/// The pigeonhole principle PHP(pigeons, holes): UNSAT whenever
/// pigeons > holes, with refutations exponential for resolution — a compact
/// way to make the solver work hard enough to restart and share clauses.
inline sat::CnfFormula pigeonhole(int pigeons, int holes) {
    sat::CnfFormula f;
    f.numVariables = pigeons * holes;
    const auto litOf = [holes](int p, int h) {
        return sat::Literal::positive(p * holes + h);
    };
    for (int p = 0; p < pigeons; ++p) {
        std::vector<sat::Literal> atLeast;
        for (int h = 0; h < holes; ++h) {
            atLeast.push_back(litOf(p, h));
        }
        f.clauses.push_back(std::move(atLeast));
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                f.clauses.push_back({~litOf(p1, h), ~litOf(p2, h)});
            }
        }
    }
    return f;
}

/// Certify an UNSAT verdict: the recorded proof must check against the
/// *original* formula with the independent backward checker.
inline ::testing::AssertionResult proofCertifies(const sat::CnfFormula& original,
                                                 const sat::DratProof& proof) {
    const sat::DratCheckResult check = sat::checkDrat(original, proof);
    if (check.verified) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "proof rejected: " << check.error << " (" << proof.steps.size()
           << " steps)";
}

}  // namespace etcs::test
