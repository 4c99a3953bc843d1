#include "core/encoder.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "cnf/amo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace etcs::core {

namespace {

/// Cache key for path unions: (e, f, maxLength) packed into 64 bits.
std::uint64_t pathKey(SegmentId e, SegmentId f, int maxLength) {
    return (static_cast<std::uint64_t>(e.get()) << 40) |
           (static_cast<std::uint64_t>(f.get()) << 16) | static_cast<std::uint64_t>(maxLength);
}

/// The hop rows one run's cone reads: from its origin, and from each pinned
/// stop with that stop's arrival step (hop distances are symmetric).
struct ConeRows {
    std::vector<int> fromOrigin;
    std::vector<std::pair<int, std::vector<int>>> fromPinned;
};

ConeRows coneRows(const rail::SegmentGraph& graph, const DiscreteRun& r) {
    ConeRows rows;
    rows.fromOrigin.resize(graph.numSegments());
    graph.distancesFrom(r.originSegment, rows.fromOrigin);
    for (const DiscreteStop& stop : r.stops) {
        if (stop.arrivalStep) {
            auto& pinned = rows.fromPinned.emplace_back(*stop.arrivalStep,
                                                        std::vector<int>(graph.numSegments()));
            graph.distancesFrom(stop.segment, pinned.second);
        }
    }
    return rows;
}

/// Whether `segment` at `step` lies in the run's cone: reachable from the
/// origin since departure, and within reach of every pinned stop's arrival.
bool inCone(const DiscreteRun& r, const ConeRows& rows, SegmentId segment, int step) {
    const auto travel = [&r](int distance) {
        return rail::travelLowerBound(distance, r.lengthSegments, r.speedSegments);
    };
    const int fromOrigin = rows.fromOrigin[segment.get()];
    if (step < r.departureStep || fromOrigin < 0 ||
        step - r.departureStep < travel(fromOrigin)) {
        return false;
    }
    // Every pinned stop anchors a cone in both time directions.
    for (const auto& [arrival, hops] : rows.fromPinned) {
        const int d = hops[segment.get()];
        if (d < 0 || std::abs(step - arrival) < travel(d)) {
            return false;
        }
    }
    return true;
}

}  // namespace

Encoder::Encoder(SatBackend& backend, const Instance& instance, EncoderOptions options,
                 std::optional<PruneTable> reach)
    : backend_(&backend), instance_(&instance), options_(options) {
    if (options_.pruneUnreachable) {
        prune_ = std::move(reach);
    }
}

void Encoder::createOccupiesVariables() {
    const auto& graph = instance_->graph();
    std::uint64_t prunedCells = 0;
    for (std::size_t run = 0; run < instance_->numRuns(); ++run) {
        const DiscreteRun& r = instance_->runs()[run];
        const ConeRows rows = coneRows(graph, r);
        for (int t = 0; t < instance_->horizonSteps(); ++t) {
            for (std::size_t s = 0; s < graph.numSegments(); ++s) {
                if (!inCone(r, rows, SegmentId(s), t)) {
                    continue;
                }
                if (prune_ && !prune_->possible(run, SegmentId(s), t)) {
                    ++prunedCells;  // cone-admitted, window-excluded
                    continue;
                }
                occ_[run][static_cast<std::size_t>(t)][s] =
                    Literal::positive(backend_->addVariable());
            }
        }
    }
    obs::Registry::global().counter("etcs.encoder.pruned.cells").add(prunedCells);
}

void Encoder::createDoneVariables() {
    for (std::size_t run = 0; run < instance_->numRuns(); ++run) {
        const DiscreteRun& r = instance_->runs()[run];
        // A run can be done at the earliest one step after its departure.
        for (int t = r.departureStep + 1; t < instance_->horizonSteps(); ++t) {
            done_[run][static_cast<std::size_t>(t)] = Literal::positive(backend_->addVariable());
        }
    }
}

void Encoder::createBorderVariables(const VssLayout* fixedLayout) {
    const auto& graph = instance_->graph();
    borderLiteral_.assign(graph.numNodes(), Literal{});
    freeBorderLiterals_.clear();
    freeBorderNodes_.clear();
    if (fixedLayout != nullptr) {
        return;  // borders are constants taken from the layout
    }
    for (std::size_t n = 0; n < graph.numNodes(); ++n) {
        if (graph.node(SegNodeId(n)).fixedBorder) {
            continue;  // constant true
        }
        // False-first, so the border minimization starts from few borders.
        const Literal lit = cnf::addFalseFirstLiteral(*backend_);
        borderLiteral_[n] = lit;
        freeBorderLiterals_.push_back(lit);
        freeBorderNodes_.push_back(SegNodeId(n));
    }
}

template <typename Fn>
void Encoder::measured(const char* family, Fn&& fn) {
    const obs::Span span(family);
    const int varsBefore = backend_->numVariables();
    const std::size_t clausesBefore = backend_->numClauses();
    fn();
    accumulateFamily(family, backend_->numVariables() - varsBefore,
                     backend_->numClauses() - clausesBefore);
}

void Encoder::accumulateFamily(std::string_view family, int variables, std::size_t clauses) {
    for (FamilyCounts& counts : familyCounts_) {
        if (counts.family == family) {
            counts.variables += variables;
            counts.clauses += clauses;
            return;
        }
    }
    familyCounts_.push_back(FamilyCounts{family, variables, clauses});
}

void Encoder::encode(const VssLayout* fixedLayout) try {
    ETCS_REQUIRE_MSG(!encoded_, "encode() may only be called once per Encoder");
    encoded_ = true;
    fixedLayout_ = fixedLayout;
    const auto horizon = static_cast<std::size_t>(instance_->horizonSteps());
    doneAll_.assign(horizon, Literal{});
    occ_.assign(instance_->numRuns(),
                std::vector<std::vector<Literal>>(
                    horizon, std::vector<Literal>(instance_->graph().numSegments())));
    done_.assign(instance_->numRuns(), std::vector<Literal>(horizon));

    const obs::Span span("encode");
    if (options_.pruneUnreachable) {
        if (!prune_) {
            const obs::Span reachSpan("encode.reach");
            prune_.emplace(*instance_);
        }
        prune_->recordMetrics();
    }
    measured("occupies_vars", [&] { createOccupiesVariables(); });
    // Nothing else consults the table: free it before the clause families
    // grow the solver, so it does not sit between the solver's allocations.
    prune_.reset();
    measured("done_vars", [&] { createDoneVariables(); });
    measured("border_vars", [&] { createBorderVariables(fixedLayout); });

    for (std::size_t run = 0; run < instance_->numRuns(); ++run) {
        measured("chain_occupancy", [&] { encodeChainOccupancy(run); });
        measured("movement", [&] { encodeMovement(run); });
        measured("done_machinery", [&] { encodeDoneMachinery(run); });
        measured("schedule_pins", [&] { encodeSchedulePins(run); });
    }
    measured("vss_separation", [&] {
        buildSeparationPlan(fixedLayout);
        for (std::size_t r1 = 0; r1 < instance_->numRuns(); ++r1) {
            for (std::size_t r2 = r1 + 1; r2 < instance_->numRuns(); ++r2) {
                encodeVssSeparation(r1, r2);
            }
        }
    });
    if (instance_->numRuns() > 1) {
        measured("pass_through", [&] {
            for (std::size_t run = 0; run < instance_->numRuns(); ++run) {
                encodePassThrough(run);
            }
        });
    }

    // Mirror the per-family breakdown into the global metrics registry and,
    // when tracing, one summary event (useful next to the encode span).
    auto& registry = obs::Registry::global();
    for (const FamilyCounts& counts : familyCounts_) {
        const std::string family(counts.family);
        registry.counter("etcs.encoder.vars." + family)
            .add(static_cast<std::uint64_t>(counts.variables));
        registry.counter("etcs.encoder.clauses." + family).add(counts.clauses);
    }
    if (options_.trackProvenance) {
        recordProvenanceMetrics();
    }
    if (obs::tracingEnabled()) {
        std::string args = "{\"variables\":" + std::to_string(backend_->numVariables()) +
                           ",\"clauses\":" + std::to_string(backend_->numClauses()) +
                           ",\"horizon\":" + std::to_string(instance_->horizonSteps()) + "}";
        obs::Tracer::instant("encode.done", args);
    }
} catch (const std::bad_alloc&) {
    // A fine r_s on a long line grows the formula past the memory at hand.
    throw InputError("the encoding of " + std::to_string(instance_->graph().numSegments()) +
                     " segments over " + std::to_string(instance_->horizonSteps()) +
                     " steps does not fit in memory; coarsen r_s");
}

void Encoder::recordProvenanceMetrics() const {
    // Per-entity encoder accounting (the heatmap axes of docs/EXPLAIN.md):
    // how many clauses each run and each TTD section contributed.
    std::vector<std::uint64_t> byRun(instance_->numRuns(), 0);
    std::vector<std::uint64_t> byTtd(instance_->network().numTtds(), 0);
    for (std::size_t span = 0; span < provenance_.numSpans(); ++span) {
        const ClauseProvenance& record = provenance_.record(span);
        const auto clauses = static_cast<std::uint64_t>(provenance_.spanClauseCount(span));
        if (record.run >= 0) {
            byRun[static_cast<std::size_t>(record.run)] += clauses;
        }
        if (record.run2 >= 0) {
            byRun[static_cast<std::size_t>(record.run2)] += clauses;
        }
        if (record.ttd >= 0) {
            byTtd[static_cast<std::size_t>(record.ttd)] += clauses;
        }
    }
    auto& registry = obs::Registry::global();
    registry.counter("etcs.provenance.spans").add(provenance_.numSpans());
    registry.counter("etcs.provenance.clauses.tagged").add(provenance_.taggedClauses());
    registry.counter("etcs.provenance.clauses.untagged")
        .add(backend_->numClauses() - provenance_.taggedClauses());
    for (std::size_t run = 0; run < byRun.size(); ++run) {
        registry.counter("etcs.provenance.clauses.run." + std::to_string(run))
            .add(byRun[run]);
    }
    for (std::size_t ttd = 0; ttd < byTtd.size(); ++ttd) {
        registry.counter("etcs.provenance.clauses.ttd." + std::to_string(ttd))
            .add(byTtd[ttd]);
    }
}

void Encoder::encodeChainOccupancy(std::size_t run) {
    const DiscreteRun& r = instance_->runs()[run];
    const auto& graph = instance_->graph();

    auto& chains = chainsByLength_[r.lengthSegments];
    if (chains.empty()) {
        chains = graph.chains(r.lengthSegments);
    }

    for (int t = r.departureStep; t < instance_->horizonSteps(); ++t) {
        tag({.family = "chain_occupancy", .run = static_cast<int>(run), .step = t});
        const auto& occAtT = occ_[run][static_cast<std::size_t>(t)];
        const Literal doneLit = done_[run][static_cast<std::size_t>(t)];

        std::vector<Literal> options;  // chain selectors (or direct occupies)
        if (r.lengthSegments == 1) {
            // Chains are single segments; the occupies variables double as
            // selectors and no auxiliary variables are needed.
            for (std::size_t s = 0; s < occAtT.size(); ++s) {
                if (occAtT[s].valid()) {
                    options.push_back(occAtT[s]);
                }
            }
        } else {
            // One selector per admissible chain (all member segments in the
            // cone). selector -> member occupies; occupies -> some selector.
            std::vector<std::vector<Literal>> selectorsOfSegment(graph.numSegments());
            for (const rail::Chain& chain : chains) {
                const bool admissible =
                    std::all_of(chain.begin(), chain.end(),
                                [&](SegmentId s) { return occAtT[s.get()].valid(); });
                if (!admissible) {
                    continue;
                }
                const Literal selector = Literal::positive(backend_->addVariable());
                options.push_back(selector);
                for (SegmentId s : chain) {
                    backend_->addClause({~selector, occAtT[s.get()]});
                    selectorsOfSegment[s.get()].push_back(selector);
                }
            }
            for (std::size_t s = 0; s < graph.numSegments(); ++s) {
                if (!occAtT[s].valid()) {
                    continue;
                }
                std::vector<Literal> clause{~occAtT[s]};
                clause.insert(clause.end(), selectorsOfSegment[s].begin(),
                              selectorsOfSegment[s].end());
                backend_->addClause(clause);
            }
        }
        if (doneLit.valid()) {
            options.push_back(doneLit);
        }
        if (options.empty()) {
            // The run has nowhere to be and cannot be done: infeasible.
            backend_->addClause({});
            continue;
        }
        // Exactly one option: the train occupies exactly one chain, or it has
        // left the network (paper's C1 with explicit presence handling).
        cnf::addExactlyOne(*backend_, options);
    }
    tagEnd();
}

void Encoder::encodeMovement(std::size_t run) {
    const DiscreteRun& r = instance_->runs()[run];
    const auto& graph = instance_->graph();
    const std::size_t numSegments = graph.numSegments();

    for (int t = r.departureStep; t + 1 < instance_->horizonSteps(); ++t) {
        tag({.family = "movement", .run = static_cast<int>(run), .step = t});
        const auto& occNow = occ_[run][static_cast<std::size_t>(t)];
        const auto& occNext = occ_[run][static_cast<std::size_t>(t) + 1];
        const Literal doneNext = done_[run][static_cast<std::size_t>(t) + 1];
        for (std::size_t e = 0; e < numSegments; ++e) {
            if (!occNow[e].valid()) {
                continue;
            }
            std::vector<Literal> clause{~occNow[e]};
            for (const SegmentId f : neighbourhood(SegmentId(e), r.speedSegments)) {
                if (occNext[f.get()].valid()) {
                    clause.push_back(occNext[f.get()]);
                }
            }
            if (doneNext.valid()) {
                clause.push_back(doneNext);
            }
            backend_->addClause(clause);
        }
    }
    tagEnd();
}

void Encoder::encodeDoneMachinery(std::size_t run) {
    const DiscreteRun& r = instance_->runs()[run];
    const SegmentId dest = r.destination().segment;

    for (int t = r.departureStep + 1; t < instance_->horizonSteps(); ++t) {
        tag({.family = "done_machinery", .run = static_cast<int>(run), .step = t});
        const Literal doneNow = done_[run][static_cast<std::size_t>(t)];
        // done is monotone: done^t -> done^{t+1}.
        if (t + 1 < instance_->horizonSteps()) {
            backend_->addClause({~doneNow, done_[run][static_cast<std::size_t>(t) + 1]});
        }
        // A run is done only right after having reached its destination:
        // done^t -> done^{t-1} | occupies[dest]^{t-1}  (with done^{dep} = false).
        std::vector<Literal> clause{~doneNow};
        const Literal donePrev = done_[run][static_cast<std::size_t>(t) - 1];
        if (donePrev.valid()) {
            clause.push_back(donePrev);
        }
        const Literal occDestPrev = occ_[run][static_cast<std::size_t>(t) - 1][dest.get()];
        if (occDestPrev.valid()) {
            clause.push_back(occDestPrev);
        }
        backend_->addClause(clause);
    }
    tagEnd();
}

void Encoder::encodeSchedulePins(std::size_t run) {
    const DiscreteRun& r = instance_->runs()[run];
    const int horizon = instance_->horizonSteps();

    // Input position: the train appears at its origin at departure (the
    // Instance guarantees a departure inside the horizon).
    tag({.family = "schedule_pins",
         .run = static_cast<int>(run),
         .step = r.departureStep,
         .segment = static_cast<int>(r.originSegment.get())});
    const Literal origin =
        occ_[run][static_cast<std::size_t>(r.departureStep)][r.originSegment.get()];
    if (origin.valid()) {
        backend_->addUnit(origin);
    } else {
        backend_->addClause({});  // origin unreachable: instance infeasible
    }

    for (const DiscreteStop& stop : r.stops) {
        if (stop.arrivalStep) {
            // Pinned stop: occupies[stop]^{arrival} = 1 (paper's schedule
            // triples); a dwell extends the pin over consecutive steps.
            for (int j = 0; j < stop.dwellSteps; ++j) {
                const int step = *stop.arrivalStep + j;
                if (step >= horizon) {
                    tag({.family = "schedule_pins",
                         .run = static_cast<int>(run),
                         .step = step,
                         .segment = static_cast<int>(stop.segment.get())});
                    backend_->addClause({});  // past the horizon
                    continue;
                }
                tag({.family = "schedule_pins",
                     .run = static_cast<int>(run),
                     .step = step,
                     .segment = static_cast<int>(stop.segment.get())});
                const Literal lit =
                    occ_[run][static_cast<std::size_t>(step)][stop.segment.get()];
                if (lit.valid()) {
                    backend_->addUnit(lit);
                } else {
                    backend_->addClause({});  // unreachable
                }
            }
        } else if (stop.dwellSteps <= 1) {
            // Open stop: the run must visit it at some step (paper Sec. III-C,
            // optimization task).
            tag({.family = "schedule_pins",
                 .run = static_cast<int>(run),
                 .segment = static_cast<int>(stop.segment.get())});
            std::vector<Literal> clause;
            for (int t = r.departureStep; t < horizon; ++t) {
                const Literal lit = occ_[run][static_cast<std::size_t>(t)][stop.segment.get()];
                if (lit.valid()) {
                    clause.push_back(lit);
                }
            }
            backend_->addClause(clause);
        } else {
            // Open stop with dwell: some window of dwellSteps consecutive
            // steps must all occupy the stop. One selector per window start.
            tag({.family = "schedule_pins",
                 .run = static_cast<int>(run),
                 .segment = static_cast<int>(stop.segment.get())});
            std::vector<Literal> selectors;
            for (int t = r.departureStep; t + stop.dwellSteps <= horizon; ++t) {
                bool windowAvailable = true;
                for (int j = 0; j < stop.dwellSteps && windowAvailable; ++j) {
                    windowAvailable =
                        occ_[run][static_cast<std::size_t>(t + j)][stop.segment.get()]
                            .valid();
                }
                if (!windowAvailable) {
                    continue;
                }
                const Literal selector = Literal::positive(backend_->addVariable());
                for (int j = 0; j < stop.dwellSteps; ++j) {
                    backend_->addClause(
                        {~selector,
                         occ_[run][static_cast<std::size_t>(t + j)][stop.segment.get()]});
                }
                selectors.push_back(selector);
            }
            backend_->addClause(selectors);  // empty -> infeasible, as intended
        }
    }
    tagEnd();
}

void Encoder::buildSeparationPlan(const VssLayout* fixedLayout) {
    if (instance_->numRuns() < 2) {
        return;  // C3 never emits without a run pair
    }
    const auto& graph = instance_->graph();
    for (std::size_t ttd = 0; ttd < instance_->network().numTtds(); ++ttd) {
        const auto segments = graph.segmentsOfTtd(TtdId(ttd));
        for (std::size_t i = 0; i < segments.size(); ++i) {
            for (std::size_t j = i; j < segments.size(); ++j) {
                const SegmentId e = segments[i];
                const SegmentId f = segments[j];

                // Border disjunction per connecting path (empty for e == f).
                // satisfied == true: some border on every set -> no clause.
                std::vector<std::vector<Literal>> borderDisjunctions;
                bool alwaysSeparated = false;
                if (e != f) {
                    alwaysSeparated = true;
                    for (const auto& nodeSet : graph.betweenNodeSets(e, f)) {
                        bool pathSatisfied = false;
                        std::vector<Literal> disjunction;
                        for (SegNodeId v : nodeSet) {
                            if (graph.node(v).fixedBorder) {
                                pathSatisfied = true;
                                break;
                            }
                            if (fixedLayout != nullptr) {
                                if (fixedLayout->flags()[v.get()]) {
                                    pathSatisfied = true;
                                    break;
                                }
                            } else {
                                disjunction.push_back(borderLiteral_[v.get()]);
                            }
                        }
                        if (!pathSatisfied) {
                            alwaysSeparated = false;
                            borderDisjunctions.push_back(std::move(disjunction));
                        }
                    }
                }
                if (alwaysSeparated) {
                    continue;
                }
                separationPlan_.push_back(SeparationEntry{static_cast<int>(ttd), e, f,
                                                          std::move(borderDisjunctions)});
            }
        }
    }
}

void Encoder::encodeVssSeparation(std::size_t run1, std::size_t run2) {
    const DiscreteRun& r1 = instance_->runs()[run1];
    const DiscreteRun& r2 = instance_->runs()[run2];
    const int firstStep = std::max(r1.departureStep, r2.departureStep);

    for (const SeparationEntry& entry : separationPlan_) {
        const SegmentId e = entry.e;
        const SegmentId f = entry.f;
        for (int t = firstStep; t < instance_->horizonSteps(); ++t) {
            tag({.family = "vss_separation",
                 .run = static_cast<int>(run1),
                 .run2 = static_cast<int>(run2),
                 .step = t,
                 .ttd = entry.ttd,
                 .segment = static_cast<int>(e.get())});
            const Literal occ1e = occ_[run1][static_cast<std::size_t>(t)][e.get()];
            const Literal occ2f = occ_[run2][static_cast<std::size_t>(t)][f.get()];
            const Literal occ1f = occ_[run1][static_cast<std::size_t>(t)][f.get()];
            const Literal occ2e = occ_[run2][static_cast<std::size_t>(t)][e.get()];
            if (e == f) {
                // Same segment, same TTD: plainly exclusive.
                if (occ1e.valid() && occ2f.valid()) {
                    backend_->addClause({~occ1e, ~occ2f});
                }
                continue;
            }
            for (const auto& disjunction : entry.disjunctions) {
                if (occ1e.valid() && occ2f.valid()) {
                    std::vector<Literal> clause{~occ1e, ~occ2f};
                    clause.insert(clause.end(), disjunction.begin(), disjunction.end());
                    backend_->addClause(clause);
                }
                if (occ1f.valid() && occ2e.valid()) {
                    std::vector<Literal> clause{~occ1f, ~occ2e};
                    clause.insert(clause.end(), disjunction.begin(), disjunction.end());
                    backend_->addClause(clause);
                }
            }
        }
    }
    tagEnd();
}

const std::vector<SegmentId>& Encoder::neighbourhood(SegmentId segment, int speed) {
    auto& lists = neighbourhoodsBySpeed_[speed];
    if (lists.empty()) {
        lists.resize(instance_->graph().numSegments());
    }
    std::vector<SegmentId>& list = lists[segment.get()];
    if (list.empty()) {  // a filled list holds at least `segment` itself
        list = instance_->graph().neighbourhood(segment, speed);
    }
    return list;
}

const std::vector<SegmentId>& Encoder::pathUnion(SegmentId e, SegmentId f, int maxLength) {
    const std::uint64_t key = pathKey(e, f, maxLength);
    const auto it = pathUnionCache_.find(key);
    if (it != pathUnionCache_.end()) {
        return it->second;
    }
    std::vector<char> member(instance_->graph().numSegments(), 0);
    for (const rail::SegmentPath& path : instance_->graph().simplePaths(e, f, maxLength)) {
        for (SegmentId s : path) {
            member[s.get()] = 1;
        }
    }
    std::vector<SegmentId> segments;
    for (std::size_t s = 0; s < member.size(); ++s) {
        if (member[s] != 0) {
            segments.push_back(SegmentId(s));
        }
    }
    return pathUnionCache_.emplace(key, std::move(segments)).first->second;
}

void Encoder::encodePassThrough(std::size_t mover) {
    const DiscreteRun& r = instance_->runs()[mover];
    const std::size_t numSegments = instance_->graph().numSegments();

    // Cell t covers the movement between t and t+1.
    for (int t = r.departureStep; t + 1 < instance_->horizonSteps(); ++t) {
        tag({.family = "pass_through", .run = static_cast<int>(mover), .step = t});
        const auto& occNow = occ_[mover][static_cast<std::size_t>(t)];
        const auto& occNext = occ_[mover][static_cast<std::size_t>(t) + 1];

        // A sweep variable for segment g only matters if some other run can
        // stand on g at t or t+1; otherwise it is a pure literal (it would
        // occur only positively, in its defining clauses) and both it and
        // those clauses can be dropped without changing satisfiability.
        std::vector<char> contested(numSegments, 0);
        for (std::size_t other = 0; other < instance_->numRuns(); ++other) {
            if (other == mover) {
                continue;
            }
            const auto& otherNow = occ_[other][static_cast<std::size_t>(t)];
            const auto& otherNext = occ_[other][static_cast<std::size_t>(t) + 1];
            for (std::size_t g = 0; g < numSegments; ++g) {
                if (otherNow[g].valid() || otherNext[g].valid()) {
                    contested[g] = 1;
                }
            }
        }

        // sweep[g]: this run's movement between t and t+1 covers segment g.
        std::vector<Literal> sweep(numSegments);
        for (std::size_t e = 0; e < numSegments; ++e) {
            if (!occNow[e].valid()) {
                continue;
            }
            for (const SegmentId f : neighbourhood(SegmentId(e), r.speedSegments)) {
                if (f.get() == e || !occNext[f.get()].valid()) {
                    continue;
                }
                // A move of distance d traverses d+1 segments including both
                // endpoints, hence the +1 on the path-length bound.
                for (SegmentId g : pathUnion(SegmentId(e), f, r.speedSegments + 1)) {
                    if (contested[g.get()] == 0) {
                        continue;
                    }
                    if (!sweep[g.get()].valid()) {
                        sweep[g.get()] = Literal::positive(backend_->addVariable());
                    }
                    // (occ[e]^t & occ[f]^{t+1}) -> sweep[g]
                    backend_->addClause({~occNow[e], ~occNext[f.get()], sweep[g.get()]});
                }
            }
        }

        // No other run may stand on a swept segment at t or t+1 (paper's C4).
        for (std::size_t other = 0; other < instance_->numRuns(); ++other) {
            if (other == mover) {
                continue;
            }
            tag({.family = "pass_through",
                 .run = static_cast<int>(mover),
                 .run2 = static_cast<int>(other),
                 .step = t});
            for (std::size_t g = 0; g < numSegments; ++g) {
                if (!sweep[g].valid()) {
                    continue;
                }
                const Literal otherNow = occ_[other][static_cast<std::size_t>(t)][g];
                const Literal otherNext = occ_[other][static_cast<std::size_t>(t) + 1][g];
                if (otherNow.valid()) {
                    backend_->addClause({~sweep[g], ~otherNow});
                }
                if (otherNext.valid()) {
                    backend_->addClause({~sweep[g], ~otherNext});
                }
            }
        }
    }
    tagEnd();
}

Literal Encoder::doneAllLiteral(int step) {
    ETCS_REQUIRE_MSG(encoded_, "encode() must run before doneAllLiteral()");
    ETCS_REQUIRE_MSG(step >= 0 && step < instance_->horizonSteps(),
                     "doneAllLiteral: step outside the horizon");
    Literal& cached = doneAll_[static_cast<std::size_t>(step)];
    if (cached.valid()) {
        return cached;
    }
    const int varsBefore = backend_->numVariables();
    const std::size_t clausesBefore = backend_->numClauses();
    tag({.family = "done_all_selectors", .step = step});
    const Literal lit = Literal::positive(backend_->addVariable());
    for (std::size_t run = 0; run < instance_->numRuns(); ++run) {
        const Literal doneLit = done_[run][static_cast<std::size_t>(step)];
        if (doneLit.valid()) {
            backend_->addClause({~lit, doneLit});
        } else {
            // This run cannot be done at `step`; the selector is unusable.
            backend_->addUnit(~lit);
            break;
        }
    }
    tagEnd();
    accumulateFamily("done_all_selectors", backend_->numVariables() - varsBefore,
                     backend_->numClauses() - clausesBefore);
    cached = lit;
    return lit;
}

int Encoder::completionLowerBound() const {
    return instance_->completionLowerBound();
}

Solution Encoder::decode() const {
    ETCS_REQUIRE_MSG(encoded_, "encode() must run before decode()");
    const auto& graph = instance_->graph();
    const int horizon = instance_->horizonSteps();

    Solution solution{VssLayout(graph), {}, 0, 0};
    if (fixedLayout_ != nullptr) {
        solution.layout = *fixedLayout_;
    } else {
        for (std::size_t i = 0; i < freeBorderNodes_.size(); ++i) {
            solution.layout.setBorder(freeBorderNodes_[i],
                                      backend_->modelValue(freeBorderLiterals_[i]));
        }
    }
    solution.sectionCount = solution.layout.sectionCount(graph);

    solution.traces.resize(instance_->numRuns());
    int lastActivity = -1;
    for (std::size_t run = 0; run < instance_->numRuns(); ++run) {
        RunTrace& trace = solution.traces[run];
        trace.occupied.assign(static_cast<std::size_t>(horizon), {});
        const SegmentId dest = instance_->runs()[run].destination().segment;
        for (int t = 0; t < horizon; ++t) {
            for (std::size_t s = 0; s < graph.numSegments(); ++s) {
                const Literal lit = occ_[run][static_cast<std::size_t>(t)][s];
                if (lit.valid() && backend_->modelValue(lit)) {
                    trace.occupied[static_cast<std::size_t>(t)].push_back(SegmentId(s));
                }
            }
            if (!trace.occupied[static_cast<std::size_t>(t)].empty()) {
                trace.lastPresentStep = t;
                lastActivity = std::max(lastActivity, t);
                const auto& segs = trace.occupied[static_cast<std::size_t>(t)];
                if (trace.firstArrivalStep < 0 &&
                    std::find(segs.begin(), segs.end(), dest) != segs.end()) {
                    trace.firstArrivalStep = t;
                }
            }
        }
    }
    solution.completionSteps = lastActivity + 1;
    return solution;
}

}  // namespace etcs::core
