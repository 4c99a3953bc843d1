/// \file encoder.hpp
/// SAT encoding of ETCS Level 3 design tasks (paper Sec. III).
///
/// Variables:
///  * occupies[r][e][t] — run r occupies segment e at step t. Created only
///    inside the run's reachability cone (forward from the origin, and in
///    both time directions around every pinned stop); everything outside the
///    cone is constant false. The cone reads one BFS row per run origin and
///    pinned stop, so the encoder holds no all-pairs distance table.
///  * border[v]         — candidate node v is a VSS border (free-layout
///    mode only; in fixed-layout mode borders are compile-time constants).
///    Allocated false-first (cnf::addFalseFirstLiteral) so the border
///    minimization starts from few borders (docs/ENCODING.md §7).
///  * done[r][t]        — run r has left the network by step t (monotone).
///  * chain selectors   — one auxiliary per admissible chain per step for
///    trains longer than one segment (the Tseitin refinement of the paper's
///    chain disjunction, see DESIGN.md §3).
///  * sweep[r][g][t]    — run r's movement between t and t+1 sweeps over
///    segment g (aggregation variable for the no-pass-through constraint).
///
/// Constraint families (paper Sec. III-B):
///  C1 chain occupancy, C2 movement, C3 VSS separation, C4 no pass-through,
/// plus the schedule pinning of Sec. III-C. C2 and C4 walk each occupied
/// segment's v*-hop neighbourhood (SegmentGraph::neighbourhood, the paper's
/// reachable(e, tr)) in ascending segment order, memoized per speed.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cnf/backend.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/provenance.hpp"
#include "core/pruning.hpp"

namespace etcs::core {

using cnf::Literal;
using cnf::SatBackend;

struct EncoderOptions {
    bool pruneUnreachable = true;     ///< drop the cone cells the fixpoint
                                      ///< reachability analysis excludes
                                      ///< (lint/reach.hpp, docs/REACHABILITY.md);
                                      ///< verdict- and objective-preserving
    bool trackProvenance = false;     ///< record a clause provenance side-table
                                      ///< (see provenance.hpp / docs/EXPLAIN.md)
};

/// Variables/clauses attributed to one part of the encoding — the Table-I
/// effort breakdown at constraint-family granularity (see
/// docs/OBSERVABILITY.md for the family names).
struct FamilyCounts {
    std::string_view family;
    int variables = 0;
    std::size_t clauses = 0;
};

/// Per-run decoded movement data.
struct RunTrace {
    std::vector<std::vector<SegmentId>> occupied;  ///< [t] -> segments (may be empty)
    int firstArrivalStep = -1;  ///< first step occupying the destination (-1: never)
    int lastPresentStep = -1;   ///< last step with any occupancy (-1: never present)
};

/// A decoded satisfying assignment.
struct Solution {
    VssLayout layout;
    std::vector<RunTrace> traces;  ///< one per run
    int completionSteps = 0;       ///< steps until all trains have left / horizon
    int sectionCount = 0;          ///< TTD/VSS sections of `layout`
};

class Encoder {
public:
    /// `reach` is `instance`'s reachability table when the caller has built
    /// one already (the tasks' fail-fast gate does); encode() then prunes with
    /// it instead of running the fixpoint again. Without one, encode() builds
    /// its own. Ignored unless options.pruneUnreachable.
    Encoder(SatBackend& backend, const Instance& instance, EncoderOptions options = {},
            std::optional<PruneTable> reach = std::nullopt);

    /// Emit all constraints over the full horizon. Pass a layout to pin every
    /// border (verification task); pass nullptr to leave borders free
    /// (generation/optimization). May only be called once. Throws InputError
    /// when the formula does not fit in memory.
    void encode(const VssLayout* fixedLayout);

    /// Free border literals (free-layout mode), for the minimization
    /// objective min sum(border_v). Each is the negation of a fresh variable,
    /// so the solver tries it false first.
    [[nodiscard]] std::span<const Literal> freeBorderLiterals() const noexcept {
        return freeBorderLiterals_;
    }

    /// Literal forcing "every run is done at `step`" (paper's done^t_i as an
    /// implication-defined selector); usable as a solver assumption. The step
    /// must lie inside the horizon.
    [[nodiscard]] Literal doneAllLiteral(int step);

    /// Instance::completionLowerBound, the completion-time search's lower
    /// bound.
    [[nodiscard]] int completionLowerBound() const;

    /// Decode the backend's current model into a Solution.
    [[nodiscard]] Solution decode() const;

    /// Variable/clause counts per constraint family, in emission order.
    /// Populated by encode(); doneAllLiteral() adds to "done_all_selectors".
    [[nodiscard]] std::span<const FamilyCounts> familyCounts() const noexcept {
        return familyCounts_;
    }

    /// Clause provenance side-table; nullptr unless
    /// EncoderOptions::trackProvenance was set before encode().
    [[nodiscard]] const ProvenanceTable* provenance() const noexcept {
        return options_.trackProvenance ? &provenance_ : nullptr;
    }

    /// Occupies literal for (run, segment, step); invalid when constant false.
    [[nodiscard]] Literal occupiesLiteral(std::size_t run, SegmentId segment, int step) const {
        return occ_[run][static_cast<std::size_t>(step)][segment.get()];
    }

    /// Done literal for (run, step); invalid literal encodes constant false.
    [[nodiscard]] Literal doneLiteral(std::size_t run, int step) const {
        return done_[run][static_cast<std::size_t>(step)];
    }

private:
    void createOccupiesVariables();
    void createDoneVariables();
    void createBorderVariables(const VssLayout* fixedLayout);
    void encodeChainOccupancy(std::size_t run);
    void encodeMovement(std::size_t run);
    void encodeDoneMachinery(std::size_t run);
    /// Origin and pinned-stop pins, then the open-stop visit clauses.
    void encodeSchedulePins(std::size_t run);
    /// Precompute the per-(TTD, segment-pair) border disjunctions C3 needs —
    /// they are step- and run-independent, so every run pair and step reuses
    /// them instead of re-walking the graph.
    void buildSeparationPlan(const VssLayout* fixedLayout);
    void encodeVssSeparation(std::size_t run1, std::size_t run2);
    void encodePassThrough(std::size_t mover);

    /// Run `fn`, attributing the backend variables/clauses it adds to
    /// `family` (accumulates across calls with the same family name).
    template <typename Fn>
    void measured(const char* family, Fn&& fn);
    void accumulateFamily(std::string_view family, int variables, std::size_t clauses);

    /// Begin/end a provenance context at the backend's current clause count.
    /// Both are single-branch no-ops when provenance tracking is off.
    void tag(const ClauseProvenance& record) {
        if (options_.trackProvenance) {
            provenance_.open(backend_->numClauses(), record);
        }
    }
    void tagEnd() {
        if (options_.trackProvenance) {
            provenance_.close(backend_->numClauses());
        }
    }
    void recordProvenanceMetrics() const;

    /// Segments within `speed` hops of `segment`, ascending (memoized).
    [[nodiscard]] const std::vector<SegmentId>& neighbourhood(SegmentId segment, int speed);
    /// Union of segments on all node-simple paths from e to f of at most
    /// maxLength segments (memoized; endpoints included).
    [[nodiscard]] const std::vector<SegmentId>& pathUnion(SegmentId e, SegmentId f,
                                                          int maxLength);

    SatBackend* backend_;
    const Instance* instance_;
    EncoderOptions options_;
    bool encoded_ = false;
    std::optional<PruneTable> prune_;  ///< pruneUnreachable's table, until the
                                       ///< occupies variables exist

    // occ_[run][t][segment]: literal or invalid (constant false).
    std::vector<std::vector<std::vector<Literal>>> occ_;
    // done_[run][t]: literal or invalid (constant false before/at departure).
    std::vector<std::vector<Literal>> done_;
    // borderLiteral_[node]: literal in free mode; invalid when fixed/pinned.
    std::vector<Literal> borderLiteral_;
    std::vector<Literal> freeBorderLiterals_;
    std::vector<SegNodeId> freeBorderNodes_;
    const VssLayout* fixedLayout_ = nullptr;
    std::vector<Literal> doneAll_;  // lazily created per step

    // C3 emission plan: one entry per non-always-separated segment pair of a
    // TTD, with the border disjunctions of every connecting path (empty list
    // for e == f: plain exclusivity).
    struct SeparationEntry {
        int ttd = 0;
        SegmentId e;
        SegmentId f;
        std::vector<std::vector<Literal>> disjunctions;
    };
    std::vector<SeparationEntry> separationPlan_;

    std::vector<FamilyCounts> familyCounts_;
    ProvenanceTable provenance_;  ///< populated only when options_.trackProvenance

    // chains per train length, computed once per distinct length
    std::unordered_map<int, std::vector<rail::Chain>> chainsByLength_;
    // v*-hop neighbourhoods per speed, [segment] filled on first use
    std::unordered_map<int, std::vector<std::vector<SegmentId>>> neighbourhoodsBySpeed_;
    // memoized path unions keyed by (e, f, maxLength)
    std::unordered_map<std::uint64_t, std::vector<SegmentId>> pathUnionCache_;
    // sweep_[pair-run][t][segment] created lazily inside encodePassThrough
};

}  // namespace etcs::core
