// SatBackend contract tests for the internal backend, plus cross-validation
// between the internal CDCL solver and Z3 when libz3 is available.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <vector>

#include "cnf/backend.hpp"
#include "core/tasks.hpp"
#include "studies/studies.hpp"

namespace etcs::cnf {
namespace {

using BackendFactory = std::function<std::unique_ptr<SatBackend>()>;

std::vector<BackendFactory> availableBackends() {
    std::vector<BackendFactory> factories{[] { return makeInternalBackend(); }};
#ifdef ETCS_HAVE_Z3
    factories.push_back([] { return makeZ3Backend(); });
#endif
    return factories;
}

TEST(Backend, ContractBasics) {
    for (const auto& factory : availableBackends()) {
        const auto backend = factory();
        SCOPED_TRACE(backend->name());
        const Literal a = Literal::positive(backend->addVariable());
        const Literal b = Literal::positive(backend->addVariable());
        EXPECT_EQ(backend->numVariables(), 2);
        backend->addClause({a, b});
        backend->addUnit(~a);
        EXPECT_EQ(backend->numClauses(), 2u);
        ASSERT_EQ(backend->solve(), SolveStatus::Sat);
        EXPECT_FALSE(backend->modelValue(a));
        EXPECT_TRUE(backend->modelValue(b));
        EXPECT_EQ(backend->solve({~b}), SolveStatus::Unsat);
        const auto core = backend->conflictCore();
        ASSERT_EQ(core.size(), 1u);
        EXPECT_EQ(core[0], ~b);
        // Still usable afterwards.
        EXPECT_EQ(backend->solve(), SolveStatus::Sat);
    }
}

/// addFalseFirstLiteral's literals start false on the internal backend: an
/// unconstrained one comes out false, and a clause over several of them is
/// satisfied by raising just one.
TEST(Backend, FalseFirstLiteralsStartFalseOnTheInternalBackend) {
    const auto backend = makeInternalBackend();
    std::vector<Literal> lits;
    for (int i = 0; i < 6; ++i) {
        lits.push_back(addFalseFirstLiteral(*backend));
    }
    EXPECT_EQ(backend->numVariables(), 6);
    backend->addClause({lits[3], lits[4], lits[5]});
    ASSERT_EQ(backend->solve(), SolveStatus::Sat);
    int raised = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
        if (i < 3) {
            EXPECT_FALSE(backend->modelValue(lits[i])) << "literal " << i;
        }
        raised += backend->modelValue(lits[i]) ? 1 : 0;
    }
    EXPECT_EQ(raised, 1);
}

TEST(Backend, CrossCheckOnRandomFormulas) {
    const auto factories = availableBackends();
    if (factories.size() < 2) {
        GTEST_SKIP() << "Z3 not available; nothing to cross-check";
    }
    std::mt19937 rng(4242);
    std::uniform_int_distribution<int> varDist(0, 11);
    std::bernoulli_distribution signDist(0.5);
    for (int round = 0; round < 15; ++round) {
        // One random 3-SAT formula near the phase transition.
        std::vector<std::vector<Literal>> clauses;
        for (int c = 0; c < 50; ++c) {
            std::vector<Literal> clause;
            for (int k = 0; k < 3; ++k) {
                clause.push_back(Literal(varDist(rng), signDist(rng)));
            }
            clauses.push_back(clause);
        }
        std::vector<SolveStatus> verdicts;
        for (const auto& factory : factories) {
            const auto backend = factory();
            for (int v = 0; v < 12; ++v) {
                backend->addVariable();
            }
            for (const auto& clause : clauses) {
                backend->addClause(clause);
            }
            verdicts.push_back(backend->solve());
        }
        for (std::size_t i = 1; i < verdicts.size(); ++i) {
            EXPECT_EQ(verdicts[0], verdicts[i]) << "round " << round;
        }
    }
}

TEST(Backend, CrossCheckOnRunningExampleTasks) {
    const auto factories = availableBackends();
    if (factories.size() < 2) {
        GTEST_SKIP() << "Z3 not available; nothing to cross-check";
    }
    const auto study = studies::runningExample();
    const core::Instance timed(study.network, study.trains, study.timedSchedule,
                               study.resolution);
    for (const auto& factory : factories) {
        core::TaskOptions options;
        options.backendFactory = factory;
        const core::VssLayout pure(timed.graph());
        EXPECT_FALSE(core::verifySchedule(timed, pure, options).feasible);
        const auto generation = core::generateLayout(timed, options);
        ASSERT_TRUE(generation.feasible);
        EXPECT_EQ(generation.sectionCount, 5);
    }
}

}  // namespace
}  // namespace etcs::cnf
