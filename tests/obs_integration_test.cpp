// End-to-end observability tests: per-family encoder accounting matches the
// backend totals, task results carry real solver counters, a traced task run
// produces the expected spans, and the task-level progress hook can cancel.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "cnf/backend.hpp"
#include "core/tasks.hpp"
#include "obs/trace.hpp"
#include "studies/studies.hpp"

namespace etcs::core {
namespace {

struct RunningFixture : ::testing::Test {
    studies::CaseStudy study = studies::runningExample();
    Instance timed{study.network, study.trains, study.timedSchedule, study.resolution};
    Instance open{study.network, study.trains, study.openSchedule, study.resolution};
};

TEST_F(RunningFixture, FamilyCountsSumToBackendTotals) {
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, timed);
    encoder.encode(nullptr);  // free-layout mode exercises border variables
    const auto families = encoder.familyCounts();
    ASSERT_FALSE(families.empty());

    int variables = 0;
    std::size_t clauses = 0;
    for (const auto& family : families) {
        EXPECT_FALSE(family.family.empty());
        EXPECT_GE(family.variables, 0);
        variables += family.variables;
        clauses += family.clauses;
    }
    EXPECT_EQ(variables, backend->numVariables());
    EXPECT_EQ(clauses, backend->numClauses());

    // The core structural families of the paper's encoding must be present.
    auto has = [&families](std::string_view name) {
        for (const auto& family : families) {
            if (family.family == name) {
                return true;
            }
        }
        return false;
    };
    EXPECT_TRUE(has("occupies_vars"));
    EXPECT_TRUE(has("border_vars"));
    EXPECT_TRUE(has("chain_occupancy"));
    EXPECT_TRUE(has("movement"));
    EXPECT_TRUE(has("vss_separation"));
    EXPECT_TRUE(has("pass_through"));
}

TEST_F(RunningFixture, DoneAllSelectorsAccountedAfterEncode) {
    const auto backend = cnf::makeInternalBackend();
    Encoder encoder(*backend, timed);
    encoder.encode(nullptr);
    const int before = backend->numVariables();
    (void)encoder.doneAllLiteral(timed.horizonSteps() - 1);
    ASSERT_GT(backend->numVariables(), before);

    int variables = 0;
    std::size_t clauses = 0;
    for (const auto& family : encoder.familyCounts()) {
        variables += family.variables;
        clauses += family.clauses;
    }
    EXPECT_EQ(variables, backend->numVariables());
    EXPECT_EQ(clauses, backend->numClauses());
}

TEST_F(RunningFixture, TaskResultsCarrySolverCounters) {
    // Verification on the pure TTD layout is UNSAT — the solver must have
    // worked for that verdict (conflicts strictly positive).
    const VssLayout pure(timed.graph());
    const auto verification = verifySchedule(timed, pure);
    ASSERT_FALSE(verification.feasible);
    EXPECT_GT(verification.stats.conflicts, 0u);
    EXPECT_GT(verification.stats.propagations, 0u);
    EXPECT_GT(verification.stats.decisions, 0u);
    EXPECT_GT(verification.stats.maxDecisionLevel, 0u);

    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    EXPECT_GT(generation.stats.propagations, 0u);
    EXPECT_GT(generation.stats.solveCalls, 0u);
}

TEST_F(RunningFixture, InternalBackendSupportsProgress) {
    const auto backend = cnf::makeInternalBackend();
    EXPECT_TRUE(backend->setProgressCallback([](const sat::SolverProgress&) {
        return true;
    }));
    EXPECT_TRUE(backend->setProgressCallback({}));  // clearing also supported
}

TEST_F(RunningFixture, TaskProgressCancellationReportsInfeasible) {
    TaskOptions options;
    options.progressIntervalConflicts = 1;  // fire on the very first conflict
    int calls = 0;
    options.progress = [&calls](const sat::SolverProgress&) {
        ++calls;
        return false;
    };
    const VssLayout pure(timed.graph());
    // The pure-TTD verification needs many conflicts, so cancellation must
    // kick in and the task reports "not feasible" without crashing.
    const auto result = verifySchedule(timed, pure, options);
    EXPECT_FALSE(result.feasible);
    EXPECT_GT(calls, 0);
}

TEST_F(RunningFixture, TracedTaskRunEmitsPipelineSpans) {
    const std::string path = ::testing::TempDir() + "etcs_obs_integration_trace.json";
    ASSERT_TRUE(obs::Tracer::start(path));
    {
        const VssLayout pure(timed.graph());
        const auto result = verifySchedule(timed, pure);
        EXPECT_FALSE(result.feasible);
    }
    obs::Tracer::stop();

    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::remove(path.c_str());

    ASSERT_FALSE(text.empty());
    EXPECT_NE(text.find("\"task.verify\""), std::string::npos);
    EXPECT_NE(text.find("\"encode\""), std::string::npos);
    EXPECT_NE(text.find("\"sat.solve\""), std::string::npos);
    EXPECT_NE(text.find("\"encode.done\""), std::string::npos);
    // Reach once: the encoder prunes with the gate's table instead of
    // running the fixpoint again.
    EXPECT_NE(text.find("\"gate.reach\""), std::string::npos);
    EXPECT_EQ(text.find("\"encode.reach\""), std::string::npos);

    auto count = [&text](const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + needle.size())) {
            ++n;
        }
        return n;
    };
    EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
    EXPECT_GT(count("\"ph\":\"B\""), 0u);
}

TEST_F(RunningFixture, TracedOptimizationEmitsMinimizeSpans) {
    const std::string path = ::testing::TempDir() + "etcs_obs_opt_trace.json";
    ASSERT_TRUE(obs::Tracer::start(path));
    {
        const auto result = optimizeSchedule(open);
        EXPECT_TRUE(result.feasible);
    }
    obs::Tracer::stop();

    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    std::remove(path.c_str());

    EXPECT_NE(text.find("\"task.optimize\""), std::string::npos);
    EXPECT_NE(text.find("\"opt.index_search\""), std::string::npos);
    EXPECT_NE(text.find("\"opt.probe_index\""), std::string::npos);
}

}  // namespace
}  // namespace etcs::core
