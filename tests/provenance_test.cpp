// ProvenanceTable unit behaviour plus the attribution-soundness contract of
// the encoder's clause tagging: every clause of an encoding is covered by at
// most one span, and every clause of a certified UNSAT core maps to exactly
// one provenance record (or is provably untagged structural glue).
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>

#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/provenance.hpp"
#include "obs/metrics.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace etcs::core {
namespace {

using rail::Network;
using rail::Schedule;
using rail::TimedStop;
using rail::TrainRun;
using rail::TrainSet;

constexpr Resolution kRes{Meters(500), Seconds(30)};

// ------------------------------------------------------- table behaviour --

TEST(ProvenanceTable, TagsAClauseRange) {
    ProvenanceTable table;
    const ClauseProvenance record{"movement", 0, -1, 3, -1, -1};
    table.open(0, record);
    table.close(3);

    ASSERT_EQ(table.numSpans(), 1u);
    EXPECT_EQ(table.taggedClauses(), 3u);
    for (std::size_t clause = 0; clause < 3; ++clause) {
        ASSERT_NE(table.lookup(clause), nullptr);
        EXPECT_EQ(*table.lookup(clause), record);
        EXPECT_EQ(table.spanOf(clause), 0);
    }
    EXPECT_EQ(table.lookup(3), nullptr);
    EXPECT_EQ(table.spanOf(3), -1);
}

TEST(ProvenanceTable, GapsBetweenSpansStayUntagged) {
    ProvenanceTable table;
    table.open(2, ClauseProvenance{"movement", 0});
    table.close(4);
    table.open(7, ClauseProvenance{"schedule_pins", 1});
    table.close(8);

    ASSERT_EQ(table.numSpans(), 2u);
    EXPECT_EQ(table.taggedClauses(), 3u);
    for (const std::size_t untagged : {0u, 1u, 4u, 5u, 6u, 8u, 100u}) {
        EXPECT_EQ(table.lookup(untagged), nullptr) << "clause " << untagged;
        EXPECT_EQ(table.spanOf(untagged), -1) << "clause " << untagged;
    }
    EXPECT_EQ(table.spanOf(2), 0);
    EXPECT_EQ(table.spanOf(3), 0);
    EXPECT_EQ(table.spanOf(7), 1);
    EXPECT_EQ(table.record(1).family, "schedule_pins");
}

TEST(ProvenanceTable, EmptyContextIsDiscarded) {
    ProvenanceTable table;
    table.open(5, ClauseProvenance{"movement", 0});
    table.close(5);
    EXPECT_EQ(table.numSpans(), 0u);
    EXPECT_EQ(table.taggedClauses(), 0u);
}

TEST(ProvenanceTable, ReopenImplicitlyClosesThePreviousContext) {
    ProvenanceTable table;
    table.open(0, ClauseProvenance{"movement", 0});
    table.open(2, ClauseProvenance{"vss_separation", 0, 1});
    table.close(4);

    ASSERT_EQ(table.numSpans(), 2u);
    EXPECT_EQ(table.spanFirstClause(0), 0u);
    EXPECT_EQ(table.spanClauseCount(0), 2u);
    EXPECT_EQ(table.record(0).family, "movement");
    EXPECT_EQ(table.spanFirstClause(1), 2u);
    EXPECT_EQ(table.spanClauseCount(1), 2u);
    EXPECT_EQ(table.record(1).run2, 1);
}

TEST(ProvenanceTable, AdjacentIdenticalContextsMerge) {
    ProvenanceTable table;
    const ClauseProvenance record{"chain_occupancy", 2};
    table.open(0, record);
    table.close(3);
    table.open(3, record);
    table.close(5);

    ASSERT_EQ(table.numSpans(), 1u);
    EXPECT_EQ(table.spanClauseCount(0), 5u);
    EXPECT_EQ(table.taggedClauses(), 5u);
}

TEST(ProvenanceToString, RendersOnlySetFields) {
    EXPECT_EQ(toString(ClauseProvenance{"movement", 1, -1, 4, -1, -1}),
              "movement run=1 step=4");
    EXPECT_EQ(toString(ClauseProvenance{"vss_separation", 0, 1, 2, 3, 7}),
              "vss_separation run=0 run2=1 step=2 ttd=3 segment=7");
    EXPECT_EQ(toString(ClauseProvenance{"done_all_selectors"}), "done_all_selectors");
}

// ------------------------------------------------------- encoder tagging --

/// The corridor from tests/fixtures: three 1000 m tracks in three TTDs,
/// stations at both ends (graph distance 5 segments at 500 m resolution).
struct CorridorWorld {
    Network network{"corridor"};
    TrainSet trains;
    TrainId train;

    CorridorWorld() {
        const auto n0 = network.addNode("n0");
        const auto n1 = network.addNode("n1");
        const auto n2 = network.addNode("n2");
        const auto n3 = network.addNode("n3");
        const auto a = network.addTrack("a", n0, n1, Meters(1000));
        const auto b = network.addTrack("b", n1, n2, Meters(1000));
        const auto c = network.addTrack("c", n2, n3, Meters(1000));
        network.addTtd("T1", {a});
        network.addTtd("T2", {b});
        network.addTtd("T3", {c});
        network.addStation("SA", a, Meters(0));
        network.addStation("SB", c, Meters(1000));
        train = trains.addTrain("T", Speed::fromKmPerHour(120), Meters(200));
    }

    [[nodiscard]] Schedule schedule(int departureStep, std::optional<int> arrivalStep) const {
        TrainRun run;
        run.train = train;
        run.origin = *network.findStation("SA");
        run.departure = Seconds(departureStep * 30);
        run.stops.push_back(TimedStop{
            *network.findStation("SB"),
            arrivalStep ? std::optional(Seconds(*arrivalStep * 30)) : std::nullopt});
        Schedule schedule;
        schedule.addRun(run);
        return schedule;
    }
};

TEST(EncoderProvenance, DisabledByDefault) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(0, 6);
    const Instance instance(w.network, w.trains, schedule, kRes);
    cnf::CollectingBackend backend;
    Encoder encoder(backend, instance);
    encoder.encode(nullptr);
    EXPECT_EQ(encoder.provenance(), nullptr);
}

TEST(EncoderProvenance, EveryClauseHasAtMostOneSpan) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(0, 6);
    const Instance instance(w.network, w.trains, schedule, kRes);

    cnf::CollectingBackend backend;
    EncoderOptions options;
    options.trackProvenance = true;
    Encoder encoder(backend, instance, options);
    const VssLayout pure(instance.graph());
    encoder.encode(&pure);

    const ProvenanceTable* table = encoder.provenance();
    ASSERT_NE(table, nullptr);
    EXPECT_GT(table->numSpans(), 0u);

    std::size_t tagged = 0;
    for (std::size_t clause = 0; clause < backend.numClauses(); ++clause) {
        const int span = table->spanOf(clause);
        const ClauseProvenance* record = table->lookup(clause);
        // spanOf and lookup agree, and a tagged clause resolves to exactly
        // the record of its (unique) span.
        ASSERT_EQ(span >= 0, record != nullptr) << "clause " << clause;
        if (record != nullptr) {
            ++tagged;
            EXPECT_EQ(*record, table->record(static_cast<std::size_t>(span)));
            EXPECT_FALSE(record->family.empty());
        }
    }
    EXPECT_EQ(tagged, table->taggedClauses());
    EXPECT_LE(table->taggedClauses(), backend.numClauses());
    // The encoding is dominated by domain constraints; tagging must cover
    // the bulk of it, not just a token family.
    EXPECT_GT(table->taggedClauses(), backend.numClauses() / 2);
}

TEST(EncoderProvenance, RecordsPerEntityMetrics) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(0, 6);
    const Instance instance(w.network, w.trains, schedule, kRes);

    auto& registry = obs::Registry::global();
    const auto spansBefore = registry.counter("etcs.provenance.spans").value();
    const auto taggedBefore = registry.counter("etcs.provenance.clauses.tagged").value();

    cnf::CollectingBackend backend;
    EncoderOptions options;
    options.trackProvenance = true;
    Encoder encoder(backend, instance, options);
    encoder.encode(nullptr);

    const ProvenanceTable* table = encoder.provenance();
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(registry.counter("etcs.provenance.spans").value() - spansBefore,
              table->numSpans());
    EXPECT_EQ(registry.counter("etcs.provenance.clauses.tagged").value() - taggedBefore,
              table->taggedClauses());
}

// -------------------------------------------- core attribution roundtrip --

/// Solve a collected formula with DRAT logging and return the certified
/// core's original-clause indices.
std::vector<std::size_t> certifiedCore(const sat::CnfFormula& formula) {
    sat::MemoryProofWriter proof;
    sat::Solver solver;
    solver.setProofWriter(&proof);
    for (int v = 0; v < formula.numVariables; ++v) {
        solver.addVariable();
    }
    bool consistent = true;
    for (const auto& clause : formula.clauses) {
        consistent = solver.addClause(clause) && consistent;
    }
    if (consistent) {
        EXPECT_EQ(solver.solve(), sat::SolveStatus::Unsat);
    }
    const sat::DratCheckResult check = sat::checkDrat(formula, proof.proof());
    EXPECT_TRUE(check.verified) << check.error;
    return check.coreClauseIndices;
}

TEST(EncoderProvenance, CertifiedCoreClausesMapToExactlyOneRecord) {
    CorridorWorld w;
    // 120 km/h = 2 segments/step over distance 5 needs 3 steps; pinning the
    // arrival at step 2 is provably infeasible (same as fixtures/).
    const rail::Schedule schedule = w.schedule(0, 2);
    const Instance instance(w.network, w.trains, schedule, kRes);

    cnf::CollectingBackend backend;
    EncoderOptions options;
    options.trackProvenance = true;
    Encoder encoder(backend, instance, options);
    const VssLayout pure(instance.graph());
    encoder.encode(&pure);

    const ProvenanceTable* table = encoder.provenance();
    ASSERT_NE(table, nullptr);
    const std::vector<std::size_t> core = certifiedCore(backend.takeFormula());
    ASSERT_FALSE(core.empty());

    std::size_t tagged = 0;
    for (const std::size_t clause : core) {
        const int span = table->spanOf(clause);
        if (span < 0) {
            continue;  // structural glue clause; allowed but counted below
        }
        ++tagged;
        // Exactly one record: the span is unique, and lookup agrees with it.
        ASSERT_EQ(table->lookup(clause), &table->record(static_cast<std::size_t>(span)));
        EXPECT_FALSE(table->record(static_cast<std::size_t>(span)).family.empty());
    }
    // The refutation must cite at least one domain constraint — an all-glue
    // core would make explanations vacuous.
    EXPECT_GE(tagged, 1u);
}

}  // namespace
}  // namespace etcs::core
