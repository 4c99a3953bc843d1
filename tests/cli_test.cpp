/// \file cli_test.cpp
/// End-to-end exit-code and output contracts of the shipped command-line
/// tools: etcslint, dratcheck, benchdiff, etcsgen, etcs_cli (the latter two
/// also over the frozen generated corpus in tests/fixtures/gen/, see
/// docs/GENERATOR.md) and sat_solve. Exit code conventions: 0 success (for
/// etcslint: no error-severity findings; for `etcs_cli explain`: feasible),
/// 1 findings / NOT VERIFIED / infeasible / regressions, 2 usage or I/O
/// error — and never partial output on failure.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "util/json.hpp"

#ifndef ETCS_ETCSLINT_BIN
#error "ETCS_ETCSLINT_BIN must point at the etcslint executable"
#endif
#ifndef ETCS_DRATCHECK_BIN
#error "ETCS_DRATCHECK_BIN must point at the dratcheck executable"
#endif
#ifndef ETCS_BENCHDIFF_BIN
#error "ETCS_BENCHDIFF_BIN must point at the benchdiff executable"
#endif
#ifndef ETCS_ETCSGEN_BIN
#error "ETCS_ETCSGEN_BIN must point at the etcsgen executable"
#endif
#ifndef ETCS_CLI_BIN
#error "ETCS_CLI_BIN must point at the etcs_cli executable"
#endif
#ifndef ETCS_SAT_SOLVE_BIN
#error "ETCS_SAT_SOLVE_BIN must point at the sat_solve executable"
#endif
#ifndef ETCS_DATA_DIR
#error "ETCS_DATA_DIR must point at the repository's data/ directory"
#endif
#ifndef ETCS_FIXTURE_DIR
#error "ETCS_FIXTURE_DIR must point at tests/fixtures/"
#endif

namespace {

struct RunResult {
    int exitCode = -1;
    std::string output;  ///< combined stdout + stderr
};

/// Run a command, capturing combined output and the real exit code. The
/// capture file is per-process: ctest runs each discovered test case as its
/// own process, concurrently under -j, and a shared file name races.
RunResult run(const std::string& command) {
    const std::string outFile = testing::TempDir() + "cli_test_output." +
                                std::to_string(::getpid()) + ".txt";
    const int status = std::system((command + " > " + outFile + " 2>&1").c_str());
    RunResult result;
    if (WIFEXITED(status)) {
        result.exitCode = WEXITSTATUS(status);
    }
    std::ifstream in(outFile);
    std::stringstream buffer;
    buffer << in.rdbuf();
    result.output = buffer.str();
    return result;
}

const std::string kLint = ETCS_ETCSLINT_BIN;
const std::string kDratcheck = ETCS_DRATCHECK_BIN;
const std::string kBenchdiff = ETCS_BENCHDIFF_BIN;
const std::string kEtcsgen = ETCS_ETCSGEN_BIN;
const std::string kEtcsCli = ETCS_CLI_BIN;
const std::string kExplain = kEtcsCli + " explain";
const std::string kSatSolve = ETCS_SAT_SOLVE_BIN;
const std::string kData = ETCS_DATA_DIR;
const std::string kFixtures = ETCS_FIXTURE_DIR;

/// The whole content of a file.
std::string fileText(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Write `content` to a per-process temp file and return its path.
std::string writeTempFile(const std::string& stem, const std::string& content) {
    const std::string path =
        testing::TempDir() + stem + "." + std::to_string(::getpid());
    std::ofstream out(path);
    out << content;
    return path;
}

/// Like writeTempFile, but keeps the extension last (etcslint classifies
/// its inputs by extension).
std::string writeSchedFile(const std::string& stem, const std::string& content) {
    const std::string path =
        testing::TempDir() + stem + "." + std::to_string(::getpid()) + ".sched";
    std::ofstream out(path);
    out << content;
    return path;
}

TEST(EtcslintCli, ShippedDataExitsZero) {
    const auto result =
        run(kLint + " " + kData + "/quickstart.rail " + kData + "/quickstart.sched");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("clean"), std::string::npos) << result.output;
}

TEST(EtcslintCli, InfeasibleScheduleExitsOneWithProofMessage) {
    const auto result = run(kLint + " " + kFixtures + "/corridor.rail " + kFixtures +
                            "/infeasible.sched");
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("L024"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("proven infeasible (no SAT solver required)"),
              std::string::npos)
        << result.output;
}

TEST(EtcslintCli, BrokenNetworkExitsOne) {
    const auto result = run(kLint + " " + kFixtures + "/broken.rail");
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("L005"), std::string::npos) << result.output;
}

TEST(EtcslintCli, JsonOutputIsEmitted) {
    const auto result = run(kLint + " --json " + kFixtures + "/broken.rail");
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("\"errors\":true"), std::string::npos) << result.output;
}

TEST(EtcslintCli, MissingFileExitsTwo) {
    const auto result = run(kLint + " /nonexistent/net.rail");
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
}

TEST(EtcslintCli, NoArgumentsExitsTwo) {
    EXPECT_EQ(run(kLint).exitCode, 2);
}

TEST(EtcslintCli, CodesListsTheCatalogue) {
    const auto result = run(kLint + " --codes");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("L024"), std::string::npos);
    EXPECT_NE(result.output.find("C010"), std::string::npos);
    EXPECT_NE(result.output.find("R001"), std::string::npos);
}

TEST(EtcslintCli, CleanInputGetsAPerFileNoDiagnosticsLine) {
    // Contract: in text mode every clean file is acknowledged explicitly,
    // so "no output about file X" always means "file X was not linted".
    const auto result =
        run(kLint + " " + kData + "/quickstart.rail " + kData + "/quickstart.sched");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("no diagnostics"), std::string::npos) << result.output;
}

TEST(EtcslintCli, ReachRefutesADeadlineWithR001AndExitsOne) {
    // SA -> SB is 5 segments; at 120 km/h and r = (500 m, 30 s) the train
    // needs 3 steps, so a 30-second deadline is reach-refutable.
    const std::string sched = writeSchedFile(
        "cli_test_reach_infeasible",
        "scenario rush\ntrain T 120 200\nrun T from SA dep 0:00 to SB arr 0:00:30\n");
    const auto result = run(kLint + " --reach --rs 500 --rt 30 " + kFixtures +
                            "/corridor.rail " + sched);
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("R001"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("proven infeasible (no SAT solver required)"),
              std::string::npos)
        << result.output;
}

TEST(EtcslintCli, ReachOnFeasibleScheduleReportsWindowsAndExitsZero) {
    const std::string sched = writeSchedFile(
        "cli_test_reach_feasible",
        "scenario relaxed\ntrain T 120 200\nrun T from SA dep 0:00 to SB arr 0:02:00\n");
    const auto result = run(kLint + " --reach --rs 500 --rt 30 " + kFixtures +
                            "/corridor.rail " + sched);
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("reach: train T"), std::string::npos) << result.output;
}

TEST(EtcslintCli, ReachJsonIsByteStable) {
    const std::string sched = writeSchedFile(
        "cli_test_reach_json",
        "scenario relaxed\ntrain T 120 200\nrun T from SA dep 0:00 to SB arr 0:02:00\n");
    const std::string command = kLint + " --reach --json --rs 500 --rt 30 " + kFixtures +
                                "/corridor.rail " + sched;
    const auto first = run(command);
    EXPECT_EQ(first.exitCode, 0) << first.output;
    EXPECT_NE(first.output.find("\"reach\""), std::string::npos) << first.output;
    EXPECT_NE(first.output.find("\"windows\""), std::string::npos) << first.output;
    const auto second = run(command);
    EXPECT_EQ(first.output, second.output) << "reach JSON must be deterministic";
}

/// The JSON report parses whatever bytes the input names hold: a control
/// character in a track name reaches the L004 entity escaped.
TEST(EtcslintCli, JsonEscapesControlCharactersInEntities) {
    const std::string rail =
        testing::TempDir() + "cli_test_control." + std::to_string(::getpid()) + ".rail";
    std::ofstream(rail) << "network ctl\nnode a\nnode b\ntrack t\x01x a b 0\n";
    const auto result = run(kLint + " --json " + rail);
    EXPECT_EQ(result.exitCode, 1) << result.output;
    etcs::util::JsonValue root;
    ASSERT_NO_THROW(root = etcs::util::parseJson(result.output)) << result.output;
    const etcs::util::JsonValue& diagnostics =
        *root.find("reports")->items.at(0).find("report")->find("diagnostics");
    bool cited = false;
    for (const etcs::util::JsonValue& d : diagnostics.items) {
        cited = cited || (d.find("code")->text == "L004" &&
                          d.find("entity")->text == "track t\x01x");
    }
    EXPECT_TRUE(cited) << result.output;
    std::remove(rail.c_str());
}

/// Quotes in train, station and file names are escaped in every part of the
/// `--reach --json` report, not only in the diagnostics.
TEST(EtcslintCli, ReachJsonEscapesNamesAndFiles) {
    std::string rail = fileText(kData + "/quickstart.rail");
    std::string sched = fileText(kData + "/quickstart.sched");
    const auto replaceAll = [](std::string& text, const std::string& from,
                               const std::string& to) {
        for (std::size_t at = text.find(from); at != std::string::npos;
             at = text.find(from, at + to.size())) {
            text.replace(at, from.size(), to);
        }
    };
    replaceAll(rail, "StWest", "St\"West");
    replaceAll(sched, "StWest", "St\"West");
    replaceAll(sched, "IC-East", "IC\"East");
    const std::string railPath =
        testing::TempDir() + "cli_test_quote." + std::to_string(::getpid()) + ".rail";
    std::ofstream(railPath) << rail;
    const std::string schedPath = writeSchedFile("cli_test_quo\"te", sched);
    const auto result = run(kLint + " --reach --json " + railPath + " '" + schedPath + "'");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    etcs::util::JsonValue root;
    ASSERT_NO_THROW(root = etcs::util::parseJson(result.output)) << result.output;
    const etcs::util::JsonValue& report = root.find("reports")->items.at(1);
    EXPECT_EQ(report.find("file")->text, schedPath);
    const etcs::util::JsonValue& run0 = report.find("reach")->find("runs")->items.at(0);
    EXPECT_EQ(run0.find("train")->text, "IC\"East");
    EXPECT_EQ(run0.find("windows")->items.at(0).find("station")->text, "St\"West");
    std::remove(railPath.c_str());
    std::remove(schedPath.c_str());
}

TEST(EtcslintCli, ReachWithMissingFileExitsTwo) {
    const auto result = run(kLint + " --reach /nonexistent/net.rail");
    EXPECT_EQ(result.exitCode, 2) << result.output;
}

TEST(EtcsCliEncode, UnwritableOutputExitsTwoWithoutPartialFile) {
    const std::string target = "/nonexistent_dir/out.cnf";
    const auto result = run(kEtcsCli + " encode " + kData + "/running_example.rail " + kData +
                            "/running_example.sched --rs 500 --rt 30 --cnf " + target);
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
    EXPECT_FALSE(std::ifstream(target).is_open()) << "no partial output may remain";
}

/// The written formula's DIMACS header carries the counts the tool prints.
TEST(EtcsCliEncode, WritesADimacsHeader) {
    const std::string target =
        testing::TempDir() + "cli_test_encode." + std::to_string(::getpid()) + ".cnf";
    const auto result = run(kEtcsCli + " encode " + kData + "/running_example.rail " + kData +
                            "/running_example.sched --rs 500 --rt 30 --pure --cnf " + target);
    EXPECT_EQ(result.exitCode, 0) << result.output;
    std::ifstream in(target);
    ASSERT_TRUE(in.is_open());
    std::string p;
    std::string cnf;
    std::size_t variables = 0;
    std::size_t clauses = 0;
    in >> p >> cnf >> variables >> clauses;
    EXPECT_EQ(p + " " + cnf, "p cnf") << "DIMACS must start with its header";
    EXPECT_NE(result.output.find("(" + std::to_string(variables) + " vars, " +
                                 std::to_string(clauses) + " clauses, pure-TTD layout)"),
              std::string::npos)
        << result.output;
    std::remove(target.c_str());
}

TEST(DratcheckCli, MissingFormulaExitsTwo) {
    const auto result = run(kDratcheck + " /nonexistent/f.cnf /nonexistent/p.drat");
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
}

TEST(DratcheckCli, InvalidDimacsExitsTwo) {
    // A .rail file is not a DIMACS formula; the reader must reject it
    // instead of producing a bogus verification verdict.
    const auto result =
        run(kDratcheck + " " + kFixtures + "/corridor.rail " + kFixtures + "/corridor.rail");
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
}

TEST(DratcheckCli, UsageErrorExitsTwo) {
    EXPECT_EQ(run(kDratcheck).exitCode, 2);
}

TEST(EtcsExplainCli, FeasibleScheduleExitsZero) {
    // SA -> SB needs 3 steps at these parameters; a 2-minute deadline
    // (step 4) leaves slack, so there is nothing to explain.
    const std::string sched = writeTempFile(
        "cli_test_feasible.sched",
        "scenario relaxed\ntrain T 120 200\nrun T from SA dep 0:00 to SB arr 0:02:00\n");
    const auto result = run(kExplain + " " + kFixtures + "/corridor.rail " + sched +
                            " --rs 500 --rt 30");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("feasible"), std::string::npos) << result.output;
}

TEST(EtcsExplainCli, InfeasibleScheduleEmitsReportAndExitsOne) {
    const auto result = run(kExplain + " " + kFixtures + "/corridor.rail " + kFixtures +
                            "/infeasible.sched --rs 500 --rt 30");
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("E101"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("certified UNSAT core"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("train T"), std::string::npos) << result.output;
}

/// The acceptance contract of docs/EXPLAIN.md, end to end: the JSON report
/// is deterministic, its cited entries are a subset of the certified core's
/// provenance records, and the exported formula/proof pair is certified by
/// the independent dratcheck binary.
TEST(EtcsExplainCli, JsonReportIsBackedByADratCertifiedCore) {
    const std::string stem = testing::TempDir() + "cli_test_explain." +
                             std::to_string(::getpid());
    const std::string jsonFile = stem + ".json";
    const std::string cnfFile = stem + ".cnf";
    const std::string proofFile = stem + ".drat";
    const std::string command = kExplain + " " + kFixtures + "/corridor.rail " +
                                kFixtures + "/infeasible.sched --rs 500 --rt 30 --json" +
                                " --out " + jsonFile + " --cnf " + cnfFile +
                                " --proof " + proofFile;
    const auto result = run(command);
    ASSERT_EQ(result.exitCode, 1) << result.output;

    // The report must parse, claim certification, and cite only (train,
    // section, step) entries backed by the certified core's records.
    std::ifstream in(jsonFile);
    ASSERT_TRUE(in.is_open());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const etcs::util::JsonValue root = etcs::util::parseJson(buffer.str());
    ASSERT_TRUE(root.isObject());
    ASSERT_NE(root.find("certified"), nullptr);
    EXPECT_TRUE(root.find("certified")->boolean);
    ASSERT_NE(root.find("unsat"), nullptr);
    EXPECT_TRUE(root.find("unsat")->boolean);

    const etcs::util::JsonValue* entries = root.find("entries");
    const etcs::util::JsonValue* records = root.find("coreRecords");
    ASSERT_NE(entries, nullptr);
    ASSERT_NE(records, nullptr);
    ASSERT_GE(entries->items.size(), 2u) << "summary plus at least one citation";
    ASSERT_FALSE(records->items.empty());
    const auto field = [](const etcs::util::JsonValue& object, const char* name) {
        const etcs::util::JsonValue* value = object.find(name);
        return value == nullptr ? -2.0 : value->number;
    };
    for (const etcs::util::JsonValue& entry : entries->items) {
        const etcs::util::JsonValue* family = entry.find("family");
        ASSERT_NE(family, nullptr);
        if (family->text.empty()) {
            continue;  // the E101 summary cites no single record
        }
        bool supported = false;
        for (const etcs::util::JsonValue& record : records->items) {
            supported = supported ||
                        (record.find("family")->text == family->text &&
                         field(record, "run") == field(entry, "run") &&
                         field(record, "ttd") == field(entry, "ttd") &&
                         field(record, "segment") == field(entry, "segment") &&
                         field(entry, "stepFirst") <= field(record, "step") &&
                         field(record, "step") <= field(entry, "stepLast"));
        }
        EXPECT_TRUE(supported) << "uncited entry family " << family->text;
    }

    // Determinism: a second run produces a byte-identical report.
    const std::string jsonFile2 = stem + ".2.json";
    const auto rerun = run(kExplain + " " + kFixtures + "/corridor.rail " + kFixtures +
                           "/infeasible.sched --rs 500 --rt 30 --json --out " + jsonFile2);
    ASSERT_EQ(rerun.exitCode, 1) << rerun.output;
    std::ifstream second(jsonFile2);
    std::stringstream buffer2;
    buffer2 << second.rdbuf();
    EXPECT_EQ(buffer.str(), buffer2.str());

    // Independent certification of the exported core's refutation.
    const auto check = run(kDratcheck + " " + cnfFile + " " + proofFile);
    EXPECT_EQ(check.exitCode, 0) << check.output;
    EXPECT_NE(check.output.find("VERIFIED"), std::string::npos) << check.output;
}

TEST(EtcsExplainCli, MissingFileExitsTwo) {
    const auto result = run(kExplain + " /nonexistent/net.rail /nonexistent/s.sched"
                            " --rs 500 --rt 30");
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
}

TEST(EtcsExplainCli, UsageErrorExitsTwo) {
    EXPECT_EQ(run(kExplain).exitCode, 2);
}

TEST(BenchdiffCli, IdenticalFilesHaveNoRegressions) {
    const std::string bench = writeTempFile(
        "cli_test_bench_old.json",
        R"({"counters":{"etcs.sat.conflicts":120},"gauges":{"table1.simple.verify.runtime_seconds":1.5},"histograms":{}})");
    const auto result = run(kBenchdiff + " " + bench + " " + bench);
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("0 regression(s)"), std::string::npos) << result.output;
}

TEST(BenchdiffCli, FlagsRuntimeRegressionsBeyondThreshold) {
    const std::string before = writeTempFile(
        "cli_test_bench_before.json",
        R"({"gauges":{"table1.simple.verify.runtime_seconds":1.0,"table1.simple.verify.variables":50}})");
    const std::string after = writeTempFile(
        "cli_test_bench_after.json",
        R"({"gauges":{"table1.simple.verify.runtime_seconds":2.0,"table1.simple.verify.variables":50}})");
    const auto result = run(kBenchdiff + " --threshold 0.25 " + before + " " + after);
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("REGRESSION"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("runtime_seconds"), std::string::npos) << result.output;

    // Within threshold, or on an unwatched metric, the diff is clean.
    const auto reversed = run(kBenchdiff + " --threshold 0.25 " + after + " " + before);
    EXPECT_EQ(reversed.exitCode, 0) << reversed.output;
}

TEST(BenchdiffCli, MalformedJsonExitsTwo) {
    const std::string bad = writeTempFile("cli_test_bench_bad.json", "{not json");
    const auto result = run(kBenchdiff + " " + bad + " " + bad);
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
}

/// Nesting deeper than the JSON parser allows is an input error, not a
/// stack overflow.
TEST(BenchdiffCli, DeeplyNestedJsonExitsTwo) {
    const std::string deep =
        writeTempFile("cli_test_bench_deep.json", std::string(100000, '['));
    const auto result = run(kBenchdiff + " " + deep + " " + deep);
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("nesting too deep"), std::string::npos) << result.output;
}

TEST(BenchdiffCli, UsageErrorExitsTwo) {
    EXPECT_EQ(run(kBenchdiff).exitCode, 2);
}

TEST(EtcsgenCli, TwoRunsAreByteIdenticalForEveryFamily) {
    // The reproducibility headline: identical parameters must reproduce
    // identical bytes for every family x schedule-kind combination.
    const std::string stem = testing::TempDir() + "cli_test_gen." +
                             std::to_string(::getpid());
    ASSERT_EQ(run("mkdir -p " + stem + ".1 " + stem + ".2").exitCode, 0);
    const std::string flags = " --family all --schedule all --seed 5 --out ";
    ASSERT_EQ(run(kEtcsgen + flags + stem + ".1").exitCode, 0);
    ASSERT_EQ(run(kEtcsgen + flags + stem + ".2").exitCode, 0);
    const auto diff = run("diff -r " + stem + ".1 " + stem + ".2");
    EXPECT_EQ(diff.exitCode, 0) << diff.output;
}

TEST(EtcsgenCli, DimacsExportCarriesHeaderAndManifestParses) {
    const std::string dir = testing::TempDir() + "cli_test_gen_cnf." +
                            std::to_string(::getpid());
    ASSERT_EQ(run("mkdir -p " + dir).exitCode, 0);
    const auto result =
        run(kEtcsgen + " --family corridor --seed 42 --dimacs --out " + dir);
    ASSERT_EQ(result.exitCode, 0) << result.output;

    std::ifstream cnf(dir + "/corridor_s42_n3_t2_feasible.cnf");
    ASSERT_TRUE(cnf.is_open());
    std::string token;
    cnf >> token;
    EXPECT_TRUE(token == "c" || token == "p") << "DIMACS must start with a header";

    std::ifstream manifest(dir + "/corridor_s42_n3_t2_feasible.json");
    ASSERT_TRUE(manifest.is_open());
    std::stringstream buffer;
    buffer << manifest.rdbuf();
    const etcs::util::JsonValue root = etcs::util::parseJson(buffer.str());
    ASSERT_TRUE(root.isObject());
    ASSERT_NE(root.find("seed"), nullptr);
    EXPECT_EQ(root.find("seed")->number, 42.0);
    ASSERT_NE(root.find("family"), nullptr);
    EXPECT_EQ(root.find("family")->text, "corridor");
}

TEST(EtcsgenCli, UnknownFamilyExitsTwo) {
    const auto result = run(kEtcsgen + " --family motorway --seed 1");
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("unknown family"), std::string::npos) << result.output;
}

TEST(EtcsgenCli, MissingRequiredFlagsExitsTwo) {
    EXPECT_EQ(run(kEtcsgen).exitCode, 2);
    EXPECT_EQ(run(kEtcsgen + " --family corridor").exitCode, 2);
}

/// Integer flags must be wholly a number in range: "4294967298" used to
/// wrap to a size of 2 instead of being rejected.
TEST(EtcsgenCli, MalformedNumbersAreUsageErrors) {
    const std::string out = " --out " + testing::TempDir();
    for (const char* flags : {"--size 4294967298", "--trains 4294967298", "--size 3x",
                              "--seed abc", "--rs 500m"}) {
        SCOPED_TRACE(flags);
        const auto result = run(kEtcsgen + " --family corridor --seed 1 " + flags + out);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("error: --"), std::string::npos) << result.output;
    }
}

TEST(EtcsgenCli, UnwritableOutputExitsTwo) {
    const auto result =
        run(kEtcsgen + " --family corridor --seed 1 --out /nonexistent_dir");
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error"), std::string::npos) << result.output;
}

TEST(EtcsCliGenCorpus, FeasibleInstancesVerifyWithExitZero) {
    for (const char* name :
         {"corridor_s42_n3_t2_feasible", "station_s42_n3_t2_feasible",
          "single_track_s42_n3_t2_feasible", "network_s42_n3_t2_feasible"}) {
        SCOPED_TRACE(name);
        const std::string base = kFixtures + "/gen/" + name;
        const auto result = run(kEtcsCli + " verify " + base + ".rail " + base +
                                ".sched --rs 500 --rt 60");
        EXPECT_EQ(result.exitCode, 0) << result.output;
        EXPECT_NE(result.output.find("FEASIBLE"), std::string::npos) << result.output;
    }
}

TEST(EtcsCliGenCorpus, InfeasibleInstancesExitOne) {
    for (const char* name :
         {"corridor_s42_n3_t2_infeasible", "station_s42_n3_t2_infeasible",
          "ring_s42_n3_t2_infeasible", "network_s42_n3_t2_infeasible"}) {
        SCOPED_TRACE(name);
        const std::string base = kFixtures + "/gen/" + name;
        const auto result = run(kEtcsCli + " verify " + base + ".rail " + base +
                                ".sched --rs 500 --rt 60");
        EXPECT_EQ(result.exitCode, 1) << result.output;
        EXPECT_NE(result.output.find("INFEASIBLE"), std::string::npos) << result.output;
    }
}

TEST(EtcslintCli, GenInfeasibleCorpusIsProvenByL024) {
    const std::string base = kFixtures + "/gen/ring_s42_n3_t2_infeasible";
    const auto result = run(kLint + " --rs 500 --rt 60 " + base + ".rail " + base +
                            ".sched");
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("L024"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("proven infeasible (no SAT solver required)"),
              std::string::npos)
        << result.output;
}

TEST(EtcslintCli, GenFeasibleCorpusIsClean) {
    const std::string base = kFixtures + "/gen/corridor_s42_n3_t2_feasible";
    const auto result = run(kLint + " --rs 500 --rt 60 " + base + ".rail " + base +
                            ".sched");
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("clean"), std::string::npos) << result.output;
}

TEST(EtcsExplainCli, GenInfeasibleCorpusGetsACertifiedExplanation) {
    const std::string base = kFixtures + "/gen/network_s42_n3_t2_infeasible";
    const auto result = run(kExplain + " " + base + ".rail " + base +
                            ".sched --rs 500 --rt 60");
    EXPECT_EQ(result.exitCode, 1) << result.output;
    EXPECT_NE(result.output.find("certified UNSAT core"), std::string::npos)
        << result.output;
}

/// Removed solve modes fail loudly: a script that still passes one gets the
/// usage message and exit 2 instead of a run in another mode.
TEST(EtcsCli, RemovedSolveModeFlagIsAUsageError) {
    for (const char* flag : {"--cegar", "--unroll", "--threads 2"}) {
        SCOPED_TRACE(flag);
        const auto result = run(kEtcsCli + " verify " + kData + "/quickstart.rail " + kData +
                                "/quickstart.sched --rs 500 --rt 30 " + flag);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: etcs_cli"), std::string::npos) << result.output;
    }
}

/// The explanation has one producer, `etcs_cli explain`: the flags of the
/// tasks' old explain mode and of the old etcs_explain tool are usage errors
/// on every command, and so is a drawing, which explain never makes.
TEST(EtcsCli, RemovedExplainFlagsAreUsageErrors) {
    const std::string files = kData + "/quickstart.rail " + kData + "/quickstart.sched";
    const std::string cnf = testing::TempDir() + "cli_test_removed." +
                            std::to_string(::getpid()) + ".cnf";
    for (const char* command : {"verify", "generate", "optimize", "encode", "explain"}) {
        for (const char* flag : {"--explain", "--explain-json out.json", "--cnf-out out.cnf",
                                 "--proof-out out.drat"}) {
            SCOPED_TRACE(std::string(command) + " " + flag);
            const auto result = run(kEtcsCli + " " + command + " " + files +
                                    " --rs 500 --rt 30 --cnf " + cnf + " " + flag);
            EXPECT_EQ(result.exitCode, 2) << result.output;
            EXPECT_NE(result.output.find("usage: etcs_cli"), std::string::npos)
                << result.output;
        }
    }
    const auto dot = run(kExplain + " " + files + " --rs 500 --rt 30 --dot out.dot");
    EXPECT_EQ(dot.exitCode, 2) << dot.output;
    EXPECT_NE(dot.output.find("usage: etcs_cli"), std::string::npos) << dot.output;
    EXPECT_FALSE(std::ifstream(cnf).is_open()) << "a usage error writes nothing";
}

/// The report's own flags belong to explain; the tasks reject them instead
/// of ignoring them.
TEST(EtcsCli, ExplainOnlyFlagsAreUsageErrorsOnTheTasks) {
    for (const char* flag : {"--json", "--no-shrink", "--out report.txt", "--proof p.drat"}) {
        SCOPED_TRACE(flag);
        const auto result = run(kEtcsCli + " verify " + kData + "/quickstart.rail " + kData +
                                "/quickstart.sched --rs 500 --rt 30 " + flag);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: etcs_cli"), std::string::npos) << result.output;
    }
}

/// --dot draws a layout, which only generate and optimize find; --cnf and
/// --pure shape a formula, which only encode and explain write. Given to any
/// other command, each is a usage error that writes nothing, instead of a
/// run that ignores it.
TEST(EtcsCli, FlagsOfOtherCommandsAreUsageErrors) {
    const std::string files = kData + "/quickstart.rail " + kData + "/quickstart.sched";
    const std::string stem =
        testing::TempDir() + "cli_test_misplaced." + std::to_string(::getpid());
    const std::string dot = stem + ".dot";
    const std::string cnf = stem + ".cnf";
    const std::pair<const char*, std::string> cases[] = {
        {"verify", "--dot " + dot},
        {"verify", "--cnf " + cnf},
        {"verify", "--pure"},
        {"verify", "--dot " + dot + " --cnf " + cnf},
        {"generate", "--cnf " + cnf},
        {"generate", "--pure"},
        {"generate", "--pure --cnf " + cnf},
        {"optimize", "--cnf " + cnf},
        {"optimize", "--pure"},
        {"encode", "--cnf " + cnf + " --dot " + dot},
        {"explain", "--dot " + dot},
    };
    for (const auto& [command, flags] : cases) {
        SCOPED_TRACE(std::string(command) + " " + flags);
        const auto result =
            run(kEtcsCli + " " + command + " " + files + " --rs 500 --rt 30 " + flags);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: etcs_cli"), std::string::npos) << result.output;
        EXPECT_FALSE(std::ifstream(dot).is_open()) << "a usage error writes nothing";
        EXPECT_FALSE(std::ifstream(cnf).is_open()) << "a usage error writes nothing";
    }
}

/// Where --dot belongs it draws the layout the task found.
TEST(EtcsCli, DotDrawsTheLayoutOfGenerateAndOptimize) {
    // The running example with its arrivals left open, for optimize.
    std::string open;
    std::istringstream timed(fileText(kData + "/running_example.sched"));
    for (std::string line; std::getline(timed, line);) {
        const std::size_t arrival = line.find(" arr ");
        open += line.substr(0, arrival) + "\n";
    }
    open += "horizon 0:05:00\n";
    const std::string rail = kData + "/running_example.rail ";
    const std::pair<const char*, std::string> cases[] = {
        {"generate", rail + kData + "/running_example.sched"},
        {"optimize", rail + writeSchedFile("cli_test_open_running", open)},
    };
    for (const auto& [command, files] : cases) {
        SCOPED_TRACE(command);
        const std::string dot = testing::TempDir() + "cli_test_" + command + "." +
                                std::to_string(::getpid()) + ".dot";
        const auto result =
            run(kEtcsCli + " " + command + " " + files + " --rs 500 --rt 30 --dot " + dot);
        EXPECT_EQ(result.exitCode, 0) << result.output;
        EXPECT_EQ(fileText(dot).rfind("graph ", 0), 0U) << fileText(dot);
        std::remove(dot.c_str());
    }
}

TEST(SatSolveCli, RemovedSolveModeFlagsAreUsageErrors) {
    const std::string cnf =
        writeTempFile("sat_solve_removed_flags.cnf", "p cnf 2 2\n1 2 0\n-1 0\n");
    for (const char* flag : {"--cegar", "--unroll", "--preprocess", "--no-restarts",
                             "--threads 4", "--deterministic"}) {
        SCOPED_TRACE(flag);
        const auto result = run(kSatSolve + " " + flag + " " + cnf);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: sat_solve"), std::string::npos) << result.output;
    }
    std::remove(cnf.c_str());
}

/// Numeric flags are parsed strictly: a value that is not wholly a number
/// is a usage error (exit 2 and the usage message), never a prefix or 0.
TEST(EtcsCli, MalformedNumbersAreUsageErrors) {
    const std::string files =
        kEtcsCli + " verify " + kData + "/running_example.rail " + kData +
        "/running_example.sched ";
    for (const char* flags : {"--rs 500m --rt 30", "--rs 500 --rt 30s", "--rs abc --rt 30"}) {
        SCOPED_TRACE(flags);
        const auto result = run(files + flags);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: etcs_cli"), std::string::npos) << result.output;
    }
}

TEST(EtcsExplainCli, MalformedNumbersAreUsageErrors) {
    const std::string files =
        kExplain + " " + kData + "/running_example.rail " + kData + "/running_example.sched ";
    for (const char* flags : {"--rs 500m --rt 30", "--rs 500 --rt 30s", "--rs 500 --rt abc"}) {
        SCOPED_TRACE(flags);
        const auto result = run(files + flags);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: etcs_cli"), std::string::npos)
            << result.output;
    }
}

TEST(BenchdiffCli, MalformedThresholdIsAUsageError) {
    const std::string bench = writeTempFile(
        "cli_test_bench_threshold.json",
        R"({"gauges":{"table1.simple.verify.runtime_seconds":1.5}})");
    for (const char* threshold : {"abc", "0.2x", "-0.5"}) {
        SCOPED_TRACE(threshold);
        const auto result =
            run(kBenchdiff + " --threshold " + threshold + " " + bench + " " + bench);
        EXPECT_EQ(result.exitCode, 2) << result.output;
        EXPECT_NE(result.output.find("usage: benchdiff"), std::string::npos) << result.output;
    }
}

// Running out of memory is an error like any other: a tool whose
// allocation fails reports it and exits 2 instead of aborting. Each command
// runs under a 2 GB address-space limit, which ASan and TSan builds exceed
// on their own reservations, so those skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerReservesAddressSpace = true;
#else
constexpr bool kSanitizerReservesAddressSpace = false;
#endif

std::string underTwoGigabytes(const std::string& command) {
    return "(ulimit -v 2000000; " + command + ")";
}

/// data/quickstart.* with lineW lengthened to 200 km and both arrivals moved
/// to 5:00: at r_s = 1 m about 204,000 segments and 301 steps. core::Instance
/// holds them in a few MB, but the encoding's table of occupies literals
/// alone takes about 0.5 GB, and the solver variables behind it do not fit
/// in 2 GB.
std::string longQuickstartFiles() {
    std::string rail = fileText(kData + "/quickstart.rail");
    const std::string lineW = "track lineW west loopIn 2000\n";
    rail.replace(rail.find(lineW), lineW.size(), "track lineW west loopIn 200000\n");
    std::string sched = fileText(kData + "/quickstart.sched");
    for (std::size_t at = sched.find("arr 0:08"); at != std::string::npos;
         at = sched.find("arr 0:08")) {
        sched.replace(at, 8, "arr 5:00");
    }
    const std::string railPath =
        testing::TempDir() + "cli_test_long_line." + std::to_string(::getpid()) + ".rail";
    std::ofstream(railPath) << rail;
    return railPath + " " + writeSchedFile("cli_test_long_line", sched);
}

TEST(SatSolveCli, OutOfMemoryExitsTwo) {
    if (kSanitizerReservesAddressSpace) {
        GTEST_SKIP() << "sanitizers reserve more than the address-space limit";
    }
    const std::string cnf =
        writeTempFile("sat_solve_oom.cnf", "p cnf 1000000000 1\n1 0\n");
    const auto result = run(underTwoGigabytes(kSatSolve + " " + cnf));
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("error: std::bad_alloc"), std::string::npos) << result.output;
    std::remove(cnf.c_str());
}

TEST(EtcsCli, OutOfMemoryExitsTwo) {
    if (kSanitizerReservesAddressSpace) {
        GTEST_SKIP() << "sanitizers reserve more than the address-space limit";
    }
    const auto result = run(
        underTwoGigabytes(kEtcsCli + " verify " + longQuickstartFiles() + " --rs 1 --rt 60"));
    EXPECT_EQ(result.exitCode, 2) << result.output;
    EXPECT_NE(result.output.find("segments"), std::string::npos) << result.output;
    EXPECT_NE(result.output.find("coarsen r_s"), std::string::npos) << result.output;
    EXPECT_EQ(result.output.find("std::bad_alloc"), std::string::npos) << result.output;
}

/// The linter discretizes the same 200 km line without an all-pairs table:
/// SegmentGraph stays linear in the number of segments.
TEST(EtcslintCli, LongLineAtOneMetreFitsInTwoGigabytes) {
    if (kSanitizerReservesAddressSpace) {
        GTEST_SKIP() << "sanitizers reserve more than the address-space limit";
    }
    const auto result =
        run(underTwoGigabytes(kLint + " --rs 1 --rt 60 " + longQuickstartFiles()));
    EXPECT_EQ(result.exitCode, 0) << result.output;
}

}  // namespace
