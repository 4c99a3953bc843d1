/// \file minimize.hpp
/// Objective minimization on top of incremental SAT.
///
/// Two primitives cover both objective functions of the paper (Sec. III-C):
///   * minimizeTrueLiterals  — min sum of Boolean "soft" literals
///                             (used for  min Σ border_v),
///   * smallestFeasibleIndex — min index t such that a monotone family of
///                             literals can hold (used for completion-time
///                             minimization via the monotone done^t chain).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "cnf/backend.hpp"

namespace etcs::opt {

using cnf::Literal;
using cnf::SatBackend;

/// The values are fixed because the names of parameterized tests print them.
enum class SearchStrategy {
    LinearDown = 0,  ///< SAT -> tighten bound below the incumbent until UNSAT.
    Binary = 2,      ///< minimizeTrueLiterals: bisection between 0 and the incumbent.
                     ///< smallestFeasibleIndex: gallop up from lo (lo, lo+1, lo+3,
                     ///< lo+7, ..., capped at hi) to the first SAT probe, then
                     ///< bisection between the last UNSAT probe and it.
};

[[nodiscard]] std::string_view toString(SearchStrategy strategy);

/// Outcome of a minimization run. When feasible, the backend holds an optimal
/// model (callers decode directly from the backend): the search's last SAT
/// probe found it, and it is not re-solved after a final UNSAT probe, since
/// SatBackend::modelValue reads the most recent satisfying model.
struct MinimizeResult {
    bool feasible = false;       ///< false: hard constraints are unsatisfiable, or a
                                 ///< solve was cancelled (SolveStatus::Unknown),
                                 ///< which ends the search at once.
    bool cancelled = false;      ///< a solve was cancelled (then feasible is false).
    int optimum = 0;             ///< minimum number of true soft literals.
    std::uint64_t solveCalls = 0;
};

/// Minimize the number of true literals among `soft` subject to the clauses
/// already in `backend`.  Builds one totalizer over `soft` and then tightens
/// the bound with assumption literals only, so the backend stays reusable.
MinimizeResult minimizeTrueLiterals(SatBackend& backend, std::span<const Literal> soft,
                                    SearchStrategy strategy = SearchStrategy::LinearDown);

/// Weighted variant: minimize sum(weight_i * soft_i). Weights must be
/// positive; a literal of weight w contributes w duplicated totalizer inputs,
/// so keep total weight moderate (it bounds the totalizer width).
MinimizeResult minimizeWeightedTrueLiterals(SatBackend& backend,
                                            std::span<const Literal> soft,
                                            std::span<const int> weights,
                                            SearchStrategy strategy = SearchStrategy::LinearDown);

/// Outcome of a monotone feasibility search.
struct IndexSearchResult {
    bool feasible = false;  ///< false: no index in [lo, hi] is feasible, or a solve
                            ///< was cancelled, which ends the search at once.
    int index = 0;          ///< smallest feasible index.
    std::uint64_t solveCalls = 0;
};

/// Find the smallest index t in [lo, hi] such that solve({literalAt(t)}) is
/// SAT.  Requires monotonicity: if t is feasible then every t' > t is
/// feasible (the paper's done^t literals satisfy this by construction).
/// When feasible, the backend holds the model of the SAT probe at the
/// returned index: every later probe was UNSAT, so it is not re-solved.
/// `Binary` gallops up from `lo`, so a tight lower bound makes it cheap.
/// `alwaysAssume` literals are added to every solve.
IndexSearchResult smallestFeasibleIndex(SatBackend& backend,
                                        const std::function<Literal(int)>& literalAt, int lo,
                                        int hi,
                                        SearchStrategy strategy = SearchStrategy::Binary,
                                        std::span<const Literal> alwaysAssume = {});

}  // namespace etcs::opt
