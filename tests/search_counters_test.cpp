// Exact search counters of the internal CDCL solver on two pinned runs.
//
// The solver is deterministic, so a change that only makes it faster leaves
// every counter below untouched. A change that alters the search itself —
// another decision, propagation order, learnt clause or minimization verdict
// — moves them, and must update the pins here, where reviewers see it.
//
// Both runs drive the encoder and the backend directly, with a fixed
// sequence of solve calls, so the pins hold the solver alone to account:
// the opt layer's choice of probes cannot move them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>

#include "cnf/backend.hpp"
#include "cnf/cardinality.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "studies/studies.hpp"

namespace etcs {
namespace {

using cnf::SolveStatus;

struct Pinned {
    std::uint64_t conflicts;
    std::uint64_t decisions;
    std::uint64_t propagations;
    std::uint64_t learnedLiterals;
    std::uint64_t minimizedLiterals;
};

void expectCounters(const sat::SolverStats& stats, const Pinned& pinned) {
    EXPECT_EQ(stats.conflicts, pinned.conflicts);
    EXPECT_EQ(stats.decisions, pinned.decisions);
    EXPECT_EQ(stats.propagations, pinned.propagations);
    EXPECT_EQ(stats.learnedLiterals, pinned.learnedLiterals);
    EXPECT_EQ(stats.minimizedLiterals, pinned.minimizedLiterals);
}

int trueCount(const cnf::SatBackend& backend, std::span<const cnf::Literal> literals) {
    int count = 0;
    for (const cnf::Literal l : literals) {
        count += backend.modelValue(l) ? 1 : 0;
    }
    return count;
}

/// The verification of corridor(2, 6, 1.5 km) on its finest layout: one long
/// UNSAT search that reduces and compacts its learnt database.
TEST(SearchCounters, CorridorFinestVerification) {
    const studies::CaseStudy study =
        studies::corridor(2, 6, Meters(1500), Resolution{Meters(500), Seconds(60)});
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    const auto backend = cnf::makeInternalBackend();
    core::Encoder encoder(*backend, instance);
    const core::VssLayout finest = core::VssLayout::finest(instance.graph());
    encoder.encode(&finest);
    EXPECT_EQ(backend->solve(), SolveStatus::Unsat);
    EXPECT_GT(backend->stats().removedClauses, 0U);
    EXPECT_GT(backend->stats().garbageCollections, 0U);
    expectCounters(backend->stats(), Pinned{.conflicts = 39372,
                                            .decisions = 91289,
                                            .propagations = 2595280,
                                            .learnedLiterals = 655501,
                                            .minimizedLiterals = 182224});
}

/// Complex Layout's generation encoding under the default border search
/// (LinearDown): a first solve, then "at most k borders" assumed below each
/// incumbent until the bound is refuted.
TEST(SearchCounters, ComplexLayoutBorderMinimization) {
    const studies::CaseStudy study = studies::complexLayout();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    const auto backend = cnf::makeInternalBackend();
    core::Encoder encoder(*backend, instance);
    encoder.encode(nullptr);
    const std::span<const cnf::Literal> borders = encoder.freeBorderLiterals();
    ASSERT_EQ(backend->solve(), SolveStatus::Sat);
    int incumbent = trueCount(*backend, borders);
    const cnf::Totalizer totalizer(*backend, borders);
    int solves = 1;
    while (incumbent > 0) {
        ++solves;
        const cnf::Literal atMost =
            totalizer.atMostAssumption(static_cast<std::size_t>(incumbent - 1));
        if (backend->solve({atMost}) != SolveStatus::Sat) {
            break;
        }
        incumbent = trueCount(*backend, borders);
    }
    EXPECT_EQ(incumbent, 1);
    EXPECT_EQ(solves, 6);
    expectCounters(backend->stats(), Pinned{.conflicts = 2296,
                                            .decisions = 11230,
                                            .propagations = 161819,
                                            .learnedLiterals = 63264,
                                            .minimizedLiterals = 12106});
}

}  // namespace
}  // namespace etcs
