// The infeasibility explanation engine: determinism of the rendered
// reports, the subset guarantee (cited entries come from the certified
// core's provenance records), agreement with the static schedule linter on
// provably infeasible fixtures, and the shrink/no-shrink contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explain.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "lint/rail_lint.hpp"
#include "util/json.hpp"

namespace etcs::core {
namespace {

using rail::Network;
using rail::Schedule;
using rail::TimedStop;
using rail::TrainRun;
using rail::TrainSet;

constexpr Resolution kRes{Meters(500), Seconds(30)};

/// Mirror of tests/fixtures/corridor.rail: three 1000 m tracks, one TTD
/// each, stations at the ends (graph distance 5 segments at 500 m).
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

    [[nodiscard]] Schedule schedule(std::optional<int> arrivalStep) const {
        TrainRun run;
        run.train = train;
        run.origin = *network.findStation("SA");
        run.departure = Seconds(0);
        run.stops.push_back(TimedStop{
            *network.findStation("SB"),
            arrivalStep ? std::optional(Seconds(*arrivalStep * 30)) : std::nullopt});
        Schedule schedule;
        schedule.addRun(run);
        return schedule;
    }
};

/// A head-on meet on a single-track, single-TTD line: two opposing trains
/// cannot pass each other, so the instance is infeasible for every layout
/// and the refutation must cite pairwise separation constraints.
struct HeadOnWorld {
    Network network{"headon"};
    TrainSet trains;
    Schedule schedule;

    HeadOnWorld() {
        const auto a = network.addNode("A");
        const auto b = network.addNode("B");
        const auto t = network.addTrack("t", a, b, Meters(3000));
        network.addTtd("T", {t});
        network.addStation("StA", t, Meters(0));
        network.addStation("StB", t, Meters(3000));
        const auto east = trains.addTrain("East", Speed::fromKmPerHour(120), Meters(100));
        const auto west = trains.addTrain("West", Speed::fromKmPerHour(120), Meters(100));
        addRun(east, "StA", "StB");
        addRun(west, "StB", "StA");
    }

    void addRun(TrainId train, const char* from, const char* to) {
        TrainRun run;
        run.train = train;
        run.origin = *network.findStation(from);
        run.departure = Seconds(0);
        run.stops.push_back(TimedStop{*network.findStation(to), Seconds(5 * 30)});
        schedule.addRun(run);
    }
};

std::string jsonReport(const ExplainResult& result) {
    std::ostringstream out;
    writeExplanationJson(out, result);
    return out.str();
}

std::string textReport(const ExplainResult& result) {
    std::ostringstream out;
    writeExplanationText(out, result);
    return out.str();
}

/// Does some core record support this entry? Key fields must match and the
/// record's step must fall inside the entry's aggregated step range.
bool supportedByCore(const ExplainEntry& entry, const ExplainResult& result) {
    for (const ClauseProvenance& record : result.coreRecords) {
        if (record.family != entry.family || record.run != entry.run ||
            record.run2 != entry.run2 || record.ttd != entry.ttd ||
            record.segment != entry.segment) {
            continue;
        }
        if (record.step < 0 ? entry.stepFirst < 0
                            : entry.stepFirst <= record.step && record.step <= entry.stepLast) {
            return true;
        }
    }
    return false;
}

void expectEntriesAreCoreSubset(const ExplainResult& result) {
    ASSERT_FALSE(result.entries.empty());
    EXPECT_EQ(result.entries.front().code, "E101");
    EXPECT_TRUE(result.entries.front().family.empty());
    for (std::size_t i = 1; i < result.entries.size(); ++i) {
        const ExplainEntry& entry = result.entries[i];
        EXPECT_TRUE(supportedByCore(entry, result))
            << "entry " << entry.code << " [" << entry.family << "] run=" << entry.run
            << " is not backed by any certified core record";
    }
}

TEST(Explain, FeasibleInstanceNeedsNoExplanation) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(6);
    const Instance instance(w.network, w.trains, schedule, kRes);
    const ExplainResult result = explainInfeasibility(instance, nullptr);
    EXPECT_TRUE(result.feasible);
    EXPECT_FALSE(result.unsat);
    EXPECT_TRUE(result.error.empty());
    EXPECT_TRUE(result.entries.empty());
    EXPECT_TRUE(result.coreRecords.empty());
}

TEST(Explain, InfeasibleCorridorIsCertifiedAndCited) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(2);
    const Instance instance(w.network, w.trains, schedule, kRes);
    const VssLayout pure(instance.graph());
    const ExplainResult result = explainInfeasibility(instance, &pure);

    EXPECT_FALSE(result.feasible);
    EXPECT_TRUE(result.unsat);
    EXPECT_TRUE(result.certified);
    EXPECT_TRUE(result.error.empty());
    EXPECT_GE(result.coreClauses, 1u);
    EXPECT_EQ(result.coreClauses, result.taggedCoreClauses + result.untaggedCoreClauses);
    EXPECT_LE(result.citedGroups, result.coreGroups);
    expectEntriesAreCoreSubset(result);

    // The lone train of the corridor is the culprit; every cited entry
    // must point at run 0.
    for (std::size_t i = 1; i < result.entries.size(); ++i) {
        EXPECT_EQ(result.entries[i].run, 0);
    }
}

TEST(Explain, HeadOnMeetCitesOnlyCoreRecords) {
    HeadOnWorld w;
    const Instance instance(w.network, w.trains, w.schedule, kRes);
    const VssLayout pure(instance.graph());
    const ExplainResult result = explainInfeasibility(instance, &pure);

    EXPECT_TRUE(result.unsat);
    EXPECT_TRUE(result.certified);
    EXPECT_TRUE(result.error.empty());
    expectEntriesAreCoreSubset(result);
}

TEST(Explain, ReportsAreDeterministic) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(2);
    const Instance instance(w.network, w.trains, schedule, kRes);
    const VssLayout pure(instance.graph());

    const ExplainResult first = explainInfeasibility(instance, &pure);
    const ExplainResult second = explainInfeasibility(instance, &pure);
    EXPECT_EQ(jsonReport(first), jsonReport(second));
    EXPECT_EQ(textReport(first), textReport(second));
    EXPECT_EQ(first.shrinkSolves, second.shrinkSolves);
}

TEST(Explain, JsonReportParsesAndMatchesTheResult) {
    CorridorWorld w;
    const rail::Schedule schedule = w.schedule(2);
    const Instance instance(w.network, w.trains, schedule, kRes);
    const VssLayout pure(instance.graph());
    const ExplainResult result = explainInfeasibility(instance, &pure);

    const util::JsonValue root = util::parseJson(jsonReport(result));
    ASSERT_EQ(root.type, util::JsonValue::Type::Object);

    const util::JsonValue* certified = root.find("certified");
    ASSERT_NE(certified, nullptr);
    EXPECT_EQ(certified->type, util::JsonValue::Type::Bool);
    EXPECT_TRUE(certified->boolean);

    const util::JsonValue* entries = root.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->type, util::JsonValue::Type::Array);
    ASSERT_EQ(entries->items.size(), result.entries.size());
    const util::JsonValue* code = entries->items.front().find("code");
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(code->text, "E101");

    const util::JsonValue* records = root.find("coreRecords");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->type, util::JsonValue::Type::Array);
    EXPECT_EQ(records->items.size(), result.coreRecords.size());
}

TEST(Explain, EveryEntryCodeIsCatalogued) {
    HeadOnWorld w;
    const Instance instance(w.network, w.trains, w.schedule, kRes);
    const ExplainResult result = explainInfeasibility(instance, nullptr);
    ASSERT_TRUE(result.unsat);
    for (const ExplainEntry& entry : result.entries) {
        bool known = false;
        for (const lint::CodeInfo& info : lint::knownCodes()) {
            if (info.code == entry.code) {
                known = true;
                EXPECT_EQ(info.severity, entry.severity) << entry.code;
            }
        }
        EXPECT_TRUE(known) << entry.code << " missing from lint::knownCodes()";
    }
}

TEST(Explain, NoShrinkKeepsEveryCoreGroup) {
    HeadOnWorld w;
    const Instance instance(w.network, w.trains, w.schedule, kRes);
    ExplainOptions options;
    options.shrinkCore = false;
    const ExplainResult result = explainInfeasibility(instance, nullptr, options);
    ASSERT_TRUE(result.unsat);
    EXPECT_EQ(result.shrinkSolves, 0u);
    EXPECT_EQ(result.citedGroups, result.coreGroups);

    const ExplainResult shrunk = explainInfeasibility(instance, nullptr);
    EXPECT_LE(shrunk.citedGroups, result.citedGroups);
}

// The static linter proves the corridor fixture infeasible without a solver
// (L024 shortest-path bound); the certified-core explanation must agree on
// the verdict and on the culprit train.
TEST(Explain, AgreesWithTheScheduleLinterOnTheCorridor) {
    CorridorWorld w;
    const Schedule infeasible = w.schedule(2);

    lint::LintReport report;
    lint::lintScenario(w.network, w.trains, infeasible, kRes, report);
    ASSERT_TRUE(report.has("L024"));
    std::string lintedTrain;
    for (const lint::Diagnostic& diagnostic : report.diagnostics()) {
        if (diagnostic.code == "L024") {
            lintedTrain = diagnostic.entity;
        }
    }
    EXPECT_EQ(lintedTrain, "train T");

    const Instance instance(w.network, w.trains, infeasible, kRes);
    const VssLayout pure(instance.graph());
    const ExplainResult result = explainInfeasibility(instance, &pure);
    ASSERT_TRUE(result.unsat);
    ASSERT_TRUE(result.certified);

    // The explanation cites the same train the linter blamed: run 0 is
    // train "T", and at least one cited entry names it.
    ASSERT_GE(result.entries.size(), 2u);
    bool citesTrainT = false;
    for (std::size_t i = 1; i < result.entries.size(); ++i) {
        if (result.entries[i].run == 0) {
            citesTrainT = true;
            EXPECT_NE(result.entries[i].message.find("train T"), std::string::npos)
                << result.entries[i].message;
        }
    }
    EXPECT_TRUE(citesTrainT);
    EXPECT_EQ(w.trains.train(instance.runs()[0].train).name, "T");
}

/// Sorted multiset of the cited diagnostic codes of an explanation.
std::vector<std::string> citedCodes(const ExplainResult& result) {
    std::vector<std::string> codes;
    for (const ExplainEntry& entry : result.entries) {
        codes.push_back(entry.code);
    }
    std::sort(codes.begin(), codes.end());
    return codes;
}

// Reachability pruning must not change what the explanation engine
// diagnoses: the same infeasible instance, explained with pruning on and
// off, yields the same verdict, certification, and E-code multiset.
TEST(Explain, PruningPreservesTheDiagnosis) {
    ExplainOptions unpruned;
    unpruned.encoder.pruneUnreachable = false;

    {
        CorridorWorld w;
        const rail::Schedule schedule = w.schedule(2);
        const Instance instance(w.network, w.trains, schedule, kRes);
        const VssLayout pure(instance.graph());
        const ExplainResult pruned = explainInfeasibility(instance, &pure);
        const ExplainResult full = explainInfeasibility(instance, &pure, unpruned);
        ASSERT_TRUE(pruned.unsat);
        ASSERT_TRUE(full.unsat);
        EXPECT_TRUE(pruned.certified);
        EXPECT_TRUE(full.certified);
        EXPECT_EQ(citedCodes(pruned), citedCodes(full));
    }
    {
        // The head-on meet is not reach-refutable (both runs meet their own
        // deadlines); pruning only trims the encodings around the conflict.
        HeadOnWorld w;
        const Instance instance(w.network, w.trains, w.schedule, kRes);
        const ExplainResult pruned = explainInfeasibility(instance, nullptr);
        const ExplainResult full = explainInfeasibility(instance, nullptr, unpruned);
        ASSERT_TRUE(pruned.unsat);
        ASSERT_TRUE(full.unsat);
        EXPECT_TRUE(pruned.certified);
        EXPECT_TRUE(full.certified);
        EXPECT_EQ(citedCodes(pruned), citedCodes(full));
    }
}

}  // namespace
}  // namespace etcs::core
