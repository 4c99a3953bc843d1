#include "opt/minimize.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "cnf/cardinality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace etcs::opt {

using cnf::SolveStatus;
using cnf::Totalizer;

namespace {

/// One trace/metrics record per bound probe of a minimization search.
void recordBoundProbe(const char* event, int bound, bool sat) {
    obs::Registry::global().counter("etcs.opt.bound_probes").increment();
    if (obs::tracingEnabled()) {
        obs::Tracer::instant(event, "{\"bound\":" + std::to_string(bound) +
                                        ",\"sat\":" + (sat ? "true" : "false") + "}");
    }
}

void recordIncumbent(int incumbent) {
    obs::Registry::global().gauge("etcs.opt.incumbent").set(incumbent);
    if (obs::tracingEnabled()) {
        obs::Tracer::counterValue("opt.incumbent", incumbent);
    }
}

int weightedCount(const SatBackend& backend, std::span<const Literal> lits,
                  std::span<const int> weights) {
    int count = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
        if (backend.modelValue(lits[i])) {
            count += weights.empty() ? 1 : weights[i];
        }
    }
    return count;
}

/// Shared search core: minimize the weighted count of true soft literals.
/// `weights` may be empty (all ones).
MinimizeResult minimizeImpl(SatBackend& backend, std::span<const Literal> soft,
                            std::span<const int> weights, SearchStrategy strategy) {
    const obs::Span span("opt.minimize");
    MinimizeResult result;

    // First solve establishes feasibility and the initial incumbent.
    ++result.solveCalls;
    const SolveStatus first = backend.solve();
    result.feasible = first == SolveStatus::Sat;
    result.cancelled = first == SolveStatus::Unknown;
    if (!result.feasible || soft.empty()) {
        return result;
    }
    int incumbent = weightedCount(backend, soft, weights);
    recordIncumbent(incumbent);
    if (incumbent == 0) {
        result.optimum = 0;
        return result;
    }

    // Weighted literals enter the totalizer once per weight unit.
    std::vector<Literal> totalizerInputs;
    if (weights.empty()) {
        totalizerInputs.assign(soft.begin(), soft.end());
    } else {
        for (std::size_t i = 0; i < soft.size(); ++i) {
            for (int w = 0; w < weights[i]; ++w) {
                totalizerInputs.push_back(soft[i]);
            }
        }
    }
    const Totalizer totalizer(backend, totalizerInputs);

    bool cancelled = false;
    auto solveAtMost = [&](int k) {
        ++result.solveCalls;
        const Literal atMost[] = {totalizer.atMostAssumption(static_cast<std::size_t>(k))};
        const SolveStatus status = backend.solve(atMost);
        const bool sat = status == SolveStatus::Sat;
        cancelled = status == SolveStatus::Unknown;
        recordBoundProbe("opt.tighten_bound", k, sat);
        if (sat) {
            recordIncumbent(weightedCount(backend, soft, weights));
        }
        return sat;
    };

    switch (strategy) {
        case SearchStrategy::LinearDown: {
            while (incumbent > 0 && solveAtMost(incumbent - 1)) {
                incumbent = weightedCount(backend, soft, weights);
            }
            break;
        }
        case SearchStrategy::Binary: {
            int lo = 0;
            int hi = incumbent;  // hi is always feasible
            while (lo < hi) {
                const int mid = lo + (hi - lo) / 2;
                if (solveAtMost(mid)) {
                    hi = weightedCount(backend, soft, weights);
                } else if (cancelled) {
                    break;
                } else {
                    lo = mid + 1;
                }
            }
            incumbent = lo;
            break;
        }
    }
    // A cancelled probe (SolveStatus::Unknown) refutes nothing, so the search
    // stops at the first one and reports no optimum, as a cancelled first
    // solve does.
    if (cancelled) {
        return MinimizeResult{.cancelled = true, .solveCalls = result.solveCalls};
    }
    result.optimum = incumbent;

    // No re-solve: every probe after the last SAT one was UNSAT, so the
    // backend still holds that model (SatBackend::modelValue reads the most
    // recent satisfying model), and that model counts the optimum.
    ETCS_REQUIRE_MSG(weightedCount(backend, soft, weights) == incumbent,
                     "the held model must count the optimum");
    return result;
}

}  // namespace

std::string_view toString(SearchStrategy strategy) {
    switch (strategy) {
        case SearchStrategy::LinearDown: return "linear-down";
        case SearchStrategy::Binary: return "binary";
    }
    return "unknown";
}

MinimizeResult minimizeTrueLiterals(SatBackend& backend, std::span<const Literal> soft,
                                    SearchStrategy strategy) {
    return minimizeImpl(backend, soft, {}, strategy);
}

MinimizeResult minimizeWeightedTrueLiterals(SatBackend& backend,
                                            std::span<const Literal> soft,
                                            std::span<const int> weights,
                                            SearchStrategy strategy) {
    ETCS_REQUIRE_MSG(weights.size() == soft.size(),
                     "one weight per soft literal required");
    ETCS_REQUIRE_MSG(std::all_of(weights.begin(), weights.end(), [](int w) { return w > 0; }),
                     "weights must be positive");
    return minimizeImpl(backend, soft, weights, strategy);
}

IndexSearchResult smallestFeasibleIndex(SatBackend& backend,
                                        const std::function<Literal(int)>& literalAt, int lo,
                                        int hi, SearchStrategy strategy,
                                        std::span<const Literal> alwaysAssume) {
    ETCS_REQUIRE_MSG(lo <= hi, "empty search range");
    const obs::Span span("opt.index_search");
    IndexSearchResult result;
    std::vector<Literal> assumptions(alwaysAssume.begin(), alwaysAssume.end());
    bool cancelled = false;
    auto feasible = [&](int t) {
        ++result.solveCalls;
        assumptions.resize(alwaysAssume.size());
        assumptions.push_back(literalAt(t));
        const SolveStatus status = backend.solve(assumptions);
        const bool sat = status == SolveStatus::Sat;
        cancelled = status == SolveStatus::Unknown;
        recordBoundProbe("opt.probe_index", t, sat);
        return sat;
    };

    switch (strategy) {
        case SearchStrategy::Binary: {
            // Gallop up from lo — probe lo, lo+1, lo+3, lo+7, ... (capped at
            // hi) — to the first SAT probe. Callers pass a lower bound such as
            // Encoder::completionLowerBound, which is usually tight, so the
            // first probes are cheap refutations or the answer itself.
            int infeasibleLo = lo - 1;
            int t = lo;
            for (int gap = 1; !feasible(t); gap *= 2) {
                if (cancelled) {
                    // As in minimizeImpl: the first cancelled probe ends
                    // the search with no index found.
                    return IndexSearchResult{.solveCalls = result.solveCalls};
                }
                if (t == hi) {
                    return result;
                }
                infeasibleLo = t;
                t = hi - t > gap ? t + gap : hi;
            }
            // Then bisect between the last UNSAT probe and that SAT one.
            int feasibleHi = t;
            while (infeasibleLo + 1 < feasibleHi) {
                const int mid = infeasibleLo + (feasibleHi - infeasibleLo) / 2;
                if (feasible(mid)) {
                    feasibleHi = mid;
                } else if (cancelled) {
                    return IndexSearchResult{.solveCalls = result.solveCalls};
                } else {
                    infeasibleLo = mid;
                }
            }
            result.feasible = true;
            result.index = feasibleHi;
            break;
        }
        case SearchStrategy::LinearDown: {
            if (!feasible(hi)) {
                return result;
            }
            int best = hi;
            for (int t = hi - 1; t >= lo; --t) {
                if (!feasible(t)) {
                    break;
                }
                best = t;
            }
            if (cancelled) {
                return IndexSearchResult{.solveCalls = result.solveCalls};
            }
            result.feasible = true;
            result.index = best;
            break;
        }
    }
    // No re-solve: each strategy's last SAT probe was at the returned index
    // and every later probe was UNSAT, so the backend still holds that model.
    if (result.feasible) {
        ETCS_REQUIRE_MSG(backend.modelValue(literalAt(result.index)),
                         "the held model must reach the optimal index");
    }
    return result;
}

}  // namespace etcs::opt
