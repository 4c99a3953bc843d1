// Tracer tests: the Chrome trace file is valid JSON with balanced B/E
// events, a traced task run carries its summary values in event args, and
// everything is a no-op when tracing is off.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/tasks.hpp"
#include "obs/trace.hpp"
#include "studies/studies.hpp"
#include "support/single_train_line.hpp"
#include "util/json.hpp"

namespace etcs::obs {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Whether `text` is one valid JSON document (util::parseJson also rejects
/// raw control characters inside strings).
bool parsesAsJson(const std::string& text) {
    try {
        (void)util::parseJson(text);
        return true;
    } catch (const InputError&) {
        return false;
    }
}

std::size_t countOccurrences(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
        ++count;
    }
    return count;
}

/// ctest runs each case as its own process, concurrently under -j, so
/// every trace file name is per-process.
std::string tracePath(const std::string& stem) {
    return ::testing::TempDir() + stem + "." + std::to_string(::getpid()) + ".json";
}

class TraceFixture : public ::testing::Test {
protected:
    void TearDown() override {
        Tracer::stop();
        std::remove(path_.c_str());
    }
    std::string path_ = tracePath("etcs_trace_test");
};

TEST_F(TraceFixture, DisabledByDefaultAndSpansAreNoops) {
    ASSERT_FALSE(tracingEnabled());
    {
        const Span span("never.recorded");
        Tracer::instant("also.never");
    }
    EXPECT_FALSE(tracingEnabled());
}

TEST_F(TraceFixture, ProducesValidJsonWithBalancedSpans) {
    ASSERT_TRUE(Tracer::start(path_));
    EXPECT_TRUE(tracingEnabled());
    {
        const Span outer("outer", R"({"k":1})");
        {
            const Span inner("inner");
            Tracer::instant("tick", R"({"n":"quote \" and backslash \\"})");
        }
        Tracer::counterValue("gauge", 42.5);
    }
    Tracer::stop();
    EXPECT_FALSE(tracingEnabled());

    const std::string text = slurp(path_);
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(parsesAsJson(text)) << text;
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"B\""), countOccurrences(text, "\"ph\":\"E\""));
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"B\""), 2u);
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"C\""), 1u);
    EXPECT_NE(text.find("\"outer\""), std::string::npos);
    EXPECT_NE(text.find("\"inner\""), std::string::npos);
}

TEST_F(TraceFixture, StopIsIdempotentAndEmptyTraceIsValid) {
    ASSERT_TRUE(Tracer::start(path_));
    Tracer::stop();
    Tracer::stop();
    const std::string text = slurp(path_);
    EXPECT_TRUE(parsesAsJson(text)) << text;
}

TEST_F(TraceFixture, RestartReplacesTraceFile) {
    ASSERT_TRUE(Tracer::start(path_));
    { const Span span("first"); }
    const std::string second = tracePath("etcs_trace_test2");
    ASSERT_TRUE(Tracer::start(second));
    { const Span span("second"); }
    Tracer::stop();
    // The first file was finalized when the second was opened.
    const std::string firstText = slurp(path_);
    const std::string secondText = slurp(second);
    std::remove(second.c_str());
    EXPECT_TRUE(parsesAsJson(firstText)) << firstText;
    EXPECT_TRUE(parsesAsJson(secondText)) << secondText;
    EXPECT_NE(firstText.find("\"first\""), std::string::npos);
    EXPECT_EQ(firstText.find("\"second\""), std::string::npos);
    EXPECT_NE(secondText.find("\"second\""), std::string::npos);
}

TEST_F(TraceFixture, StartFailsOnUnwritablePath) {
    EXPECT_FALSE(Tracer::start("/nonexistent-dir-xyz/trace.json"));
    EXPECT_FALSE(tracingEnabled());
}

/// The args of every trace event called `name`, in file order.
std::vector<util::JsonValue> argsOf(const util::JsonValue& events, std::string_view name) {
    std::vector<util::JsonValue> args;
    for (const util::JsonValue& event : events.items) {
        if (event.find("name")->text == name) {
            args.push_back(*event.find("args"));
        }
    }
    return args;
}

double numberAt(const util::JsonValue& args, std::string_view key) {
    const util::JsonValue* value = args.find(key);
    return value == nullptr ? -1.0 : value->number;
}

/// A task's summary lives in the trace: a traced verification writes one
/// `task.done` instant whose args are its TaskStats, the encoder's
/// `encode.done` names the horizon, and each solve's `sat.solve.done`
/// reports its status and work.
TEST_F(TraceFixture, TracedVerificationWritesItsTaskStats) {
    const studies::CaseStudy study = studies::runningExample();
    const core::Instance timed(study.network, study.trains, study.timedSchedule,
                               study.resolution);
    const core::VssLayout pure(timed.graph());
    ASSERT_TRUE(Tracer::start(path_));
    const core::VerificationResult result = core::verifySchedule(timed, pure);
    Tracer::stop();
    ASSERT_FALSE(result.feasible);
    const core::TaskStats& stats = result.stats;

    const util::JsonValue events = util::parseJson(slurp(path_));
    const auto done = argsOf(events, "task.done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].find("task")->text, "verify");
    EXPECT_EQ(numberAt(done[0], "variables"), stats.numVariables);
    EXPECT_EQ(numberAt(done[0], "clauses"), static_cast<double>(stats.numClauses));
    EXPECT_EQ(numberAt(done[0], "solve_calls"), static_cast<double>(stats.solveCalls));
    EXPECT_EQ(numberAt(done[0], "conflicts"), static_cast<double>(stats.conflicts));
    EXPECT_EQ(numberAt(done[0], "propagations"), static_cast<double>(stats.propagations));
    EXPECT_EQ(numberAt(done[0], "decisions"), static_cast<double>(stats.decisions));
    EXPECT_EQ(numberAt(done[0], "restarts"), static_cast<double>(stats.restarts));
    EXPECT_EQ(numberAt(done[0], "max_decision_level"),
              static_cast<double>(stats.maxDecisionLevel));
    EXPECT_EQ(numberAt(done[0], "peak_learnts"), static_cast<double>(stats.peakLearnts));
    EXPECT_EQ(numberAt(done[0], "seconds"), stats.runtimeSeconds);

    const auto encoded = argsOf(events, "encode.done");
    ASSERT_EQ(encoded.size(), 1u);
    EXPECT_EQ(numberAt(encoded[0], "horizon"), timed.horizonSteps());

    const auto solves = argsOf(events, "sat.solve.done");
    ASSERT_EQ(solves.size(), stats.solveCalls);
    double conflicts = 0;
    for (const util::JsonValue& solve : solves) {
        EXPECT_GE(numberAt(solve, "seconds"), 0.0);
        EXPECT_GE(numberAt(solve, "propagations"), 0.0);
        conflicts += numberAt(solve, "conflicts");
    }
    EXPECT_EQ(solves.back().find("status")->text, "unsat");
    EXPECT_EQ(conflicts, static_cast<double>(stats.conflicts));
}

/// A gate rejection says which gate and how many findings refuted the
/// schedule, and the task still closes with its `task.done` instant.
TEST_F(TraceFixture, GateRejectionIsTraced) {
    // B is 7 segments from A and the train covers 5 a step, so an arrival
    // at step 1 is refuted by the schedule lints.
    const test::SingleTrainLine line(500, 200, 30, Seconds(600), Seconds(60));
    const core::Instance instance(line.network, line.trains, line.schedule,
                                  test::SingleTrainLine::kResolution);
    ASSERT_TRUE(Tracer::start(path_));
    const core::VerificationResult result =
        core::verifySchedule(instance, core::VssLayout(instance.graph()));
    Tracer::stop();
    ASSERT_FALSE(result.feasible);
    ASSERT_EQ(result.stats.solveCalls, 0u);

    const util::JsonValue events = util::parseJson(slurp(path_));
    const auto rejected = argsOf(events, "gate.rejected");
    ASSERT_EQ(rejected.size(), 1u);
    EXPECT_EQ(rejected[0].find("gate")->text, "lint");
    EXPECT_GE(numberAt(rejected[0], "errors"), 1.0);
    const auto done = argsOf(events, "task.done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(numberAt(done[0], "solve_calls"), 0.0);
    EXPECT_EQ(numberAt(done[0], "seconds"), result.stats.runtimeSeconds);
}

TEST(JsonEscapeTest, EscapesSpecials) {
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    const std::string escaped = jsonEscape(std::string("a\x01") + "b");
    EXPECT_EQ(escaped.find('\x01'), std::string::npos);
}

}  // namespace
}  // namespace etcs::obs
