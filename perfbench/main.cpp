/// \file main.cpp
/// The repository benchmark: one closed-loop client (single process, single
/// thread, default core::TaskOptions, one task at a time, as a CLI user runs
/// them). It writes a workload's inputs as text, parses and discretizes them
/// (setup_s), runs the paper's tasks over them in repeated, interleaved
/// passes until the time budget is spent, checks every answer, and prints
/// every metric with its unit; the last line of stdout is one JSON object.
///
///   etcs_perfbench --workload <paper|frontier|corpus> --seed <n>
///                  --seconds <s> --trace <0|1> [--quick] [--spans-out <file>]
///   etcs_perfbench --workload <w> --seed <n> --certify-out <dir>
///
/// --trace 0 measures the end-to-end metrics with nothing in the way.
/// --trace 1 runs every task three ways per pass (plain, through the timing
/// backend decorator, and as the replica of core/tasks.cpp) and reports the
/// per-layer metrics. --certify-out writes each solver-answered UNSAT task's
/// formula (DIMACS) and DRAT proof for tools/dratcheck. perfbench/README.md
/// documents the metrics and why each workload exists.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "cnf/backend.hpp"
#include "replica.hpp"
#include "sat/dimacs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = 0;
    bool quick = false;
    std::string spansOut;
    std::string certifyOut;
};

bool parseArgs(int argc, char** argv, Args& args) {
    bool haveSeed = false;
    bool haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--quick") {
            args.quick = true;
            continue;
        }
        if (i + 1 >= argc) {
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                haveSeconds = true;
            } else if (flag == "--trace") {
                args.trace = std::stoi(value);
            } else if (flag == "--spans-out") {
                args.spansOut = value;
            } else if (flag == "--certify-out") {
                args.certifyOut = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    const bool certifying = !args.certifyOut.empty();
    return !args.workload.empty() && haveSeed && (certifying || haveSeconds) &&
           args.seconds >= 0.0 && (args.trace == 0 || args.trace == 1);
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of `values` (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- metric output ---------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;  ///< human-readable provenance; not part of the JSON
};

void printReport(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("  %-28s %16.9g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());
    }
}

void printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

// ---- setup -----------------------------------------------------------------

/// setup_s is the median over blocks of the mean time per setup. A block
/// repeats the whole setup on throwaway copies until it has spent
/// kSetupBlockSeconds, so no timed figure rests on one short call. Blocks run
/// between passes — one whenever setup has had less than kSetupShare of the
/// pass time so far, and at least kSetupBlocks in all — so they sample the
/// same host phases as the passes do.
constexpr int kSetupBlocks = 5;
constexpr double kSetupBlockSeconds = 0.2;
constexpr double kSetupShare = 0.1;

double spanSeconds(const Recorder& recorder, std::size_t from, const char* name) {
    double total = 0.0;
    const auto& spans = recorder.spans();
    for (std::size_t i = from; i < spans.size(); ++i) {
        if (std::strcmp(spans[i].name, name) == 0) {
            total += spans[i].end - spans[i].start;
        }
    }
    return total;
}

struct SetupTimer {
    std::vector<double> perSetup;
    std::vector<double> parse;     ///< traced: railway.parse per setup
    std::vector<double> instance;  ///< traced: core.instance per setup
    double spent = 0.0;
    int setups = 0;

    void block(const Workload& workload, Recorder* recorder) {
        double blockSpent = 0.0;
        int count = 0;
        const std::size_t mark = recorder ? recorder->mark() : 0;
        while (count == 0 || blockSpent < kSetupBlockSeconds) {
            const auto start = Clock::now();
            const Loaded loaded = setUp(workload, recorder);
            blockSpent += secondsSince(start);
            ++count;
        }
        spent += blockSpent;
        setups += count;
        perSetup.push_back(blockSpent / count);
        if (recorder) {
            parse.push_back(spanSeconds(*recorder, mark, "railway.parse") / count);
            instance.push_back(spanSeconds(*recorder, mark, "core.instance") / count);
        }
    }
};

// ---- passes ----------------------------------------------------------------

struct RunState {
    const Workload* workload = nullptr;
    const Loaded* loaded = nullptr;
    /// Open-verdict tasks: how many runs answered SAT (witness validated) and
    /// UNSAT, pending the certification that follows the passes.
    std::vector<std::array<std::uint64_t, 2>> openAnswers;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    int reportedErrors = 0;

    void fail(const TaskSpec& task, const std::string& error, std::uint64_t runs = 1) {
        failed += runs;
        if (reportedErrors++ < 10) {
            std::fprintf(stderr, "FAIL %s: %s\n", task.name.c_str(), error.c_str());
        }
    }
};

/// Judge one answer; on failure count it and report the first few.
void judge(RunState& state, std::size_t t, const Answer* answer, double seconds,
           const std::string& exceptionText) {
    const TaskSpec& task = state.workload->tasks[t];
    ++state.attempted;
    std::string error = exceptionText;
    if (error.empty() && answer != nullptr) {
        const bool open = task.expected == Verdict::Open;
        if (!open || answer->feasible) {
            error = checkAnswer(task, *(*state.loaded)[task.input], *answer,
                                open ? Verdict::Sat : task.expected);
        }
        if (open && error.empty()) {
            ++state.openAnswers[t][answer->feasible ? 0 : 1];
        }
        if (error.empty() && seconds > state.workload->taskLimitSeconds) {
            error = "no answer within the " + std::to_string(state.workload->taskLimitSeconds) +
                    " s task limit";
        }
    }
    if (!error.empty()) {
        state.fail(task, error);
    }
}

/// Settle the Open verdicts after the passes (so the recording backend's
/// formula copies stay out of peak_rss_mb): every answer must agree with the
/// certified verdict, and every UNSAT answer needs a DRAT-certified or
/// gate-proved UNSAT behind it. Returns the number certified.
std::size_t settleOpenVerdicts(RunState& state) {
    const Workload& w = *state.workload;
    std::size_t certified = 0;
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
        const TaskSpec& task = w.tasks[t];
        if (task.expected != Verdict::Open) {
            continue;
        }
        ++certified;
        std::string error;
        const std::optional<Verdict> verdict = certify(task, *(*state.loaded)[task.input], error);
        const auto [satRuns, unsatRuns] = state.openAnswers[t];
        if (!verdict) {
            state.fail(task, "certification failed: " + error, std::max<std::uint64_t>(unsatRuns, 1));
        } else if (*verdict == Verdict::Sat && unsatRuns > 0) {
            state.fail(task, "answered UNSAT, but a validated witness exists", unsatRuns);
        } else if (*verdict == Verdict::Unsat && satRuns > 0) {
            state.fail(task, "answered SAT, but UNSAT is certified", satRuns);
        }
    }
    return certified;
}

/// Run one task through the library and judge it; returns its time (or a
/// negative value when it threw).
double timedTask(RunState& state, std::size_t t, const etcs::core::TaskOptions& options,
                 Answer* keep = nullptr) {
    const TaskSpec& task = state.workload->tasks[t];
    const LoadedInput& input = *(*state.loaded)[task.input];
    try {
        const auto start = Clock::now();
        Answer answer = runTask(task, input, options);
        const double seconds = secondsSince(start);
        judge(state, t, &answer, seconds, {});
        if (keep != nullptr) {
            *keep = std::move(answer);
        }
        return seconds;
    } catch (const std::exception& e) {
        judge(state, t, nullptr, 0.0, std::string("exception: ") + e.what());
        return -1.0;
    }
}

/// The first pass runs the tasks in the workload's own order, so the memory
/// high-water mark it leaves (peak_rss_mb) depends on neither the shuffle nor
/// the host's speed; later passes run in a seed-shuffled order.
std::vector<std::size_t> passOrder(std::size_t tasks, int pass, std::mt19937_64& rng) {
    std::vector<std::size_t> order(tasks);
    for (std::size_t i = 0; i < tasks; ++i) {
        order[i] = i;
    }
    if (pass > 0) {
        std::shuffle(order.begin(), order.end(), rng);
    }
    return order;
}

/// Per-task statistic the timed metrics are built from: each task's median
/// time over the run's passes. Passes interleave every task in a shuffled
/// order, so a slow host phase hits every task alike; on this kind of host
/// (perfbench/README.md) the per-task median varied less from run to run
/// than the per-task minimum once a run holds ten or more passes.
struct TaskTimes {
    std::vector<std::vector<double>> samples;  ///< [task][pass]
    std::vector<char> sat;                     ///< verdict of the task
    int passes = 0;

    [[nodiscard]] double taskSeconds(std::size_t t) const { return median(samples[t]); }
};

double sumTimes(const TaskTimes& times, const Workload& w, int satFilter, int kindFilter) {
    double total = 0.0;
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
        if (satFilter >= 0 && times.sat[t] != satFilter) {
            continue;
        }
        if (kindFilter >= 0 && static_cast<int>(w.tasks[t].kind) != kindFilter) {
            continue;
        }
        total += times.taskSeconds(t);
    }
    return total;
}

/// Task-level figures shared by both modes: pass time split by verdict and
/// task kind, and per-task percentiles with their sample counts.
void taskMetrics(const TaskTimes& times, const Workload& w, std::vector<Metric>& out,
                 bool endToEnd) {
    const std::string passNote = "(sum over " + std::to_string(w.tasks.size()) +
                                 " tasks of each task's median over " +
                                 std::to_string(times.passes) + " passes)";
    if (endToEnd) {
        out.push_back({"pass_s", sumTimes(times, w, -1, -1), "s", passNote});
        out.push_back({"sat_s", sumTimes(times, w, 1, -1), "s", "(tasks answered SAT)"});
        out.push_back({"unsat_s", sumTimes(times, w, 0, -1), "s",
                       "(tasks answered UNSAT, gate rejections included)"});
    }
    for (TaskKind kind : {TaskKind::Verify, TaskKind::Generate, TaskKind::Optimize}) {
        out.push_back({std::string("core.") + kindName(kind) + "_s",
                       sumTimes(times, w, -1, static_cast<int>(kind)), "s",
                       std::string("(") + kindName(kind) + " tasks)"});
    }
}

void percentileReport(const TaskTimes& times, const Workload& w) {
    std::vector<double> perTask;
    for (std::size_t t = 0; t < w.tasks.size(); ++t) {
        perTask.push_back(times.taskSeconds(t));
    }
    const std::size_t n = perTask.size();
    for (const double q : {0.5, 0.9}) {
        const auto beyond = n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
        std::printf("  task_s.p%-20d %16.9g s      (%zu tasks, %zu beyond%s)\n",
                    static_cast<int>(q * 100), percentile(perTask, q), n, beyond,
                    beyond < 10 && q > 0.5 ? "; fewer than 10, not a valid tail" : "");
    }
}

void untracedPass(RunState& state, std::mt19937_64& rng, TaskTimes& times) {
    const etcs::core::TaskOptions defaults;
    for (const std::size_t t : passOrder(state.workload->tasks.size(), times.passes, rng)) {
        Answer answer;
        const double seconds = timedTask(state, t, defaults, &answer);
        if (seconds >= 0.0) {
            times.samples[t].push_back(seconds);
            times.sat[t] = answer.feasible ? 1 : 0;
        }
    }
}

// ---- traced run ------------------------------------------------------------

/// Per-task figures of the traced run. Times are medians over the passes,
/// like the end-to-end figures; counts are exact and identical on every pass.
struct LayerTask {
    enum Time {
        Untraced,      // plain library call
        Replica,       // whole replica task
        SolveLibrary,  // sat.solve inside the library call (decorator)
        LintSchedule,
        LintReach,
        Encode,        // core.encode + core.done_all
        Decode,
        Minimize,
        MinimizeSelf,
        IndexSearch,
        kTimes
    };
    std::array<std::vector<double>, kTimes> samples;
    BoundaryCounts library;  ///< decorator counts inside the library call
    etcs::core::TaskStats stats;
    bool scheduleReject = false;
    bool reachReject = false;
    std::uint64_t minimizeCalls = 0;
    std::uint64_t minimizeSat = 0;
    std::uint64_t indexCalls = 0;
    bool replicaMatches = true;

    void keep(Time which, double seconds) { samples[which].push_back(seconds); }
    [[nodiscard]] double seconds(int which) const { return median(samples[which]); }
};

bool sameCounts(const Answer& a, const Answer& b) {
    return a.feasible == b.feasible && a.sections == b.sections && a.steps == b.steps &&
           a.stats.solveCalls == b.stats.solveCalls && a.stats.conflicts == b.stats.conflicts &&
           a.stats.numVariables == b.stats.numVariables &&
           a.stats.numClauses == b.stats.numClauses;
}

/// Fold the replica's spans (recorded from `mark` on) into `layer`.
void foldReplicaSpans(const Recorder& recorder, std::size_t mark, LayerTask& layer) {
    const auto& spans = recorder.spans();
    std::vector<double> childSeconds(spans.size() - mark, 0.0);
    for (std::size_t i = mark; i < spans.size(); ++i) {
        const int parent = spans[i].parent;
        if (parent >= static_cast<int>(mark)) {
            childSeconds[static_cast<std::size_t>(parent) - mark] += spans[i].end - spans[i].start;
        }
    }
    std::array<double, LayerTask::kTimes> sums{};
    std::uint64_t minimizeCalls = 0;
    std::uint64_t minimizeSat = 0;
    std::uint64_t indexCalls = 0;
    for (std::size_t i = mark; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        const double seconds = s.end - s.start;
        const char* name = s.name;
        if (std::strcmp(name, "task.replica") == 0) {
            sums[LayerTask::Replica] += seconds;
        } else if (std::strcmp(name, "lint.schedule") == 0) {
            sums[LayerTask::LintSchedule] += seconds;
        } else if (std::strcmp(name, "lint.reach") == 0) {
            sums[LayerTask::LintReach] += seconds;
        } else if (std::strcmp(name, "core.encode") == 0 ||
                   std::strcmp(name, "core.done_all") == 0) {
            sums[LayerTask::Encode] += seconds;
        } else if (std::strcmp(name, "core.decode") == 0) {
            sums[LayerTask::Decode] += seconds;
        } else if (std::strcmp(name, "opt.minimize") == 0) {
            sums[LayerTask::Minimize] += seconds;
            sums[LayerTask::MinimizeSelf] += seconds - childSeconds[i - mark];
        } else if (std::strcmp(name, "opt.index_search") == 0) {
            sums[LayerTask::IndexSearch] += seconds;
        } else if (std::strcmp(name, "sat.solve") == 0 && s.parent >= static_cast<int>(mark)) {
            const char* parent = spans[static_cast<std::size_t>(s.parent)].name;
            if (std::strcmp(parent, "opt.minimize") == 0) {
                ++minimizeCalls;
                minimizeSat += s.status == SpanStatus::Sat ? 1 : 0;
            } else if (std::strcmp(parent, "opt.index_search") == 0) {
                ++indexCalls;
            }
        }
    }
    for (int k = LayerTask::Replica; k < LayerTask::kTimes; ++k) {
        if (k != LayerTask::SolveLibrary) {
            layer.keep(static_cast<LayerTask::Time>(k), sums[k]);
        }
    }
    layer.minimizeCalls = minimizeCalls;
    layer.minimizeSat = minimizeSat;
    layer.indexCalls = indexCalls;
}

void tracedPass(RunState& state, std::mt19937_64& rng, Recorder& recorder,
                std::vector<LayerTask>& layers, TaskTimes& times) {
    const Workload& w = *state.workload;
    const etcs::core::TaskOptions defaults;
    const int pass = times.passes;
    for (const std::size_t t : passOrder(w.tasks.size(), pass, rng)) {
        const TaskSpec& task = w.tasks[t];
        const LoadedInput& input = *(*state.loaded)[task.input];
        LayerTask& layer = layers[t];
        recorder.setContext(static_cast<int>(t), pass);

        // 1. Plain library call: the reference for counts and overhead.
        Answer plain;
        const double plainSeconds = timedTask(state, t, defaults, &plain);
        if (plainSeconds < 0.0) {
            continue;
        }
        layer.keep(LayerTask::Untraced, plainSeconds);
        times.samples[t].push_back(plainSeconds);
        times.sat[t] = plain.feasible ? 1 : 0;
        layer.stats = plain.stats;

        // 2. The library through the timing backend decorator.
        BoundaryCounts library;
        etcs::core::TaskOptions decorated;
        decorated.backendFactory = [&]() -> std::unique_ptr<etcs::cnf::SatBackend> {
            return std::make_unique<BoundaryBackend>(etcs::cnf::makeInternalBackend(),
                                                     &recorder, library);
        };
        {
            const Scope span(&recorder, "task.library");
            (void)timedTask(state, t, decorated);
        }
        layer.keep(LayerTask::SolveLibrary, library.solveSeconds);
        layer.library = library;

        // 3. The replica of core/tasks.cpp. It is a diagnostic: if it
        // throws, it no longer matches, but no task has failed.
        BoundaryCounts replicaCounts;
        const std::size_t mark = recorder.mark();
        ReplicaOutcome replica;
        try {
            const Scope span(&recorder, "task.replica");
            replica = runReplica(task, input, recorder, replicaCounts);
        } catch (const std::exception&) {
            layer.replicaMatches = false;
            continue;
        }
        foldReplicaSpans(recorder, mark, layer);
        layer.scheduleReject = replica.scheduleRejected;
        layer.reachReject = replica.reachRejected;
        layer.replicaMatches = layer.replicaMatches && sameCounts(replica.answer, plain);
    }
}

std::vector<Metric> layerMetrics(const std::vector<LayerTask>& layers, const SetupTimer& setup,
                                 const Loaded& loaded) {
    double sums[LayerTask::kTimes] = {};
    std::uint64_t scheduleRejects = 0, reachRejects = 0, variables = 0, clauses = 0;
    std::uint64_t conflicts = 0, propagations = 0, decisions = 0, peakLearnts = 0;
    std::uint64_t minimizeCalls = 0, minimizeSat = 0, indexCalls = 0, matches = 0;
    BoundaryCounts library;
    for (const LayerTask& l : layers) {
        for (int k = 0; k < LayerTask::kTimes; ++k) {
            sums[k] += l.seconds(k);
        }
        scheduleRejects += l.scheduleReject ? 1 : 0;
        reachRejects += l.reachReject ? 1 : 0;
        variables += static_cast<std::uint64_t>(l.stats.numVariables);
        clauses += l.stats.numClauses;
        conflicts += l.stats.conflicts;
        propagations += l.stats.propagations;
        decisions += l.stats.decisions;
        peakLearnts = std::max(peakLearnts, l.stats.peakLearnts);
        minimizeCalls += l.minimizeCalls;
        minimizeSat += l.minimizeSat;
        indexCalls += l.indexCalls;
        matches += l.replicaMatches ? 1 : 0;
        library.solveCalls += l.library.solveCalls;
        library.satCalls += l.library.satCalls;
        library.unsatCalls += l.library.unsatCalls;
        library.clauses += l.library.clauses;
        library.literals += l.library.literals;
    }
    std::uint64_t segments = 0;
    for (const auto& input : loaded) {
        segments += input->instance->graph().numSegments();
    }
    const double solve = sums[LayerTask::SolveLibrary];
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto share = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
    return {
        {"railway.parse_s", median(setup.parse), "s", "(per setup, median of blocks)"},
        {"core.instance_s", median(setup.instance), "s", "(per setup, median of blocks)"},
        {"core.segments", d(segments), "count", "(discretized segments over all inputs)"},
        {"lint.schedule_s", sums[LayerTask::LintSchedule], "s", "(lint::lintSchedule)"},
        {"lint.schedule_rejects", d(scheduleRejects), "count", ""},
        {"lint.reach_s", sums[LayerTask::LintReach], "s", "(core::PruneTable gate)"},
        {"lint.reach_rejects", d(reachRejects), "count", ""},
        {"core.encode_s", sums[LayerTask::Encode], "s", "(Encoder::encode + doneAllLiteral)"},
        {"core.variables", d(variables), "count", "(TaskStats::numVariables)"},
        {"core.clauses", d(clauses), "count", "(TaskStats::numClauses)"},
        {"cnf.clauses_added", d(library.clauses), "count", "(across the backend boundary)"},
        {"cnf.literals_added", d(library.literals), "count", "(across the backend boundary)"},
        {"core.decode_s", sums[LayerTask::Decode], "s", "(Encoder::decode)"},
        {"sat.solve_s", solve, "s", "(solve() inside the library call)"},
        {"sat.solve_calls", d(library.solveCalls), "count", ""},
        {"sat.sat_calls", d(library.satCalls), "count", ""},
        {"sat.unsat_calls", d(library.unsatCalls), "count", ""},
        {"sat.conflicts", d(conflicts), "count", ""},
        {"sat.propagations", d(propagations), "count", ""},
        {"sat.decisions", d(decisions), "count", ""},
        {"sat.propagations_per_s", share(d(propagations), solve), "1/s", ""},
        {"sat.solve_s.per_call", share(solve, d(library.solveCalls)), "s", ""},
        {"sat.peak_learnts", d(peakLearnts), "count", "(largest over tasks)"},
        {"opt.minimize_s", sums[LayerTask::Minimize], "s", "(opt::minimizeTrueLiterals)"},
        {"opt.minimize_self_s", sums[LayerTask::MinimizeSelf], "s", "(minus its solve calls)"},
        {"opt.minimize_calls", d(minimizeCalls), "count", "(solve calls it made)"},
        {"opt.minimize_sat_share", share(d(minimizeSat), d(minimizeCalls)), "ratio",
         "(of those, answered SAT)"},
        {"opt.index_search_s", sums[LayerTask::IndexSearch], "s",
         "(opt::smallestFeasibleIndex)"},
        {"opt.index_search_calls", d(indexCalls), "count", "(solve calls it made)"},
        {"trace.overhead_share",
         share(sums[LayerTask::Replica] - sums[LayerTask::Untraced], sums[LayerTask::Untraced]),
         "ratio", "(traced replica pass vs plain pass)"},
        {"trace.replica_match", share(d(matches), d(layers.size())), "ratio",
         "(tasks whose replica counts equal TaskStats)"},
    };
}

// ---- certificates for tools/dratcheck --------------------------------------

int exportCertificates(const Workload& w, const std::string& dir) {
    std::filesystem::create_directories(dir);
    const Loaded loaded = setUp(w, nullptr);
    int written = 0;
    for (const TaskSpec& task : w.tasks) {
        const auto recorded = record(task, *loaded[task.input]);
        if (recorded->answer.feasible || !recorded->solverUsed) {
            continue;
        }
        std::string base = task.name;
        std::replace(base.begin(), base.end(), '/', '.');
        if (!etcs::sat::writeDimacsFile(dir + "/" + base + ".cnf", recorded->formula)) {
            std::fprintf(stderr, "could not write %s/%s.cnf\n", dir.c_str(), base.c_str());
            return 1;
        }
        std::ofstream proof(dir + "/" + base + ".drat", std::ios::binary);
        etcs::sat::BinaryDratWriter writer(proof);
        etcs::sat::writeDrat(writer, recorded->proof.proof());
        writer.flush();
        if (!proof) {
            std::fprintf(stderr, "could not write %s/%s.drat\n", dir.c_str(), base.c_str());
            return 1;
        }
        std::printf("%s: UNSAT, %zu clauses, %zu proof steps -> %s/%s.{cnf,drat}\n",
                    task.name.c_str(), recorded->formula.clauses.size(),
                    recorded->proof.proof().steps.size(), dir.c_str(), base.c_str());
        ++written;
    }
    return written > 0 ? 0 : 1;
}

int run(int argc, char** argv) {
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: etcs_perfbench --workload <paper|frontier|corpus> --seed <n> "
                     "--seconds <s> --trace <0|1> [--quick] [--spans-out <file>]\n"
                     "       etcs_perfbench --workload <w> --seed <n> --certify-out <dir>\n");
        return 2;
    }
    const std::optional<Workload> workload = makeWorkload(args.workload, args.seed, args.quick);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const Workload& w = *workload;
    if (!args.certifyOut.empty()) {
        return exportCertificates(w, args.certifyOut);
    }

    Recorder recorder;
    const bool traced = args.trace == 1;
    const Loaded loaded = setUp(w, nullptr);

    RunState state;
    state.workload = &w;
    state.loaded = &loaded;
    state.openAnswers.assign(w.tasks.size(), {0, 0});
    TaskTimes times;
    times.samples.resize(w.tasks.size());
    times.sat.assign(w.tasks.size(), 0);
    std::vector<LayerTask> layers(w.tasks.size());
    std::mt19937_64 rng(args.seed);
    double passSeconds = 0.0;
    const auto onePass = [&] {
        const auto start = Clock::now();
        if (traced) {
            tracedPass(state, rng, recorder, layers, times);
        } else {
            untracedPass(state, rng, times);
        }
        passSeconds += secondsSince(start);
        ++times.passes;
    };

    // The first, unshuffled pass fixes the memory high-water mark, before
    // the setup measurement's throwaway setups; the other passes fill the
    // time budget, with setup blocks in between.
    onePass();
    const double peakRss = peakRssMb();
    SetupTimer setup;
    Recorder* setupRecorder = traced ? &recorder : nullptr;
    while (passSeconds < args.seconds) {
        if (setup.spent < kSetupShare * passSeconds) {
            setup.block(w, setupRecorder);
        }
        onePass();
    }
    while (setup.perSetup.size() < kSetupBlocks) {
        setup.block(w, setupRecorder);
    }

    const std::size_t certified = settleOpenVerdicts(state);

    std::vector<Metric> report;
    std::vector<Metric> json;
    if (traced) {
        json = layerMetrics(layers, setup, loaded);
        taskMetrics(times, w, json, false);
        report = json;
    } else {
        json.push_back({"setup_s", median(setup.perSetup), "s",
                        "(median of " + std::to_string(setup.perSetup.size()) + " blocks, " +
                            std::to_string(setup.setups) + " setups)"});
        taskMetrics(times, w, json, true);
        json.push_back({"peak_rss_mb", peakRss, "MB",
                        "(ru_maxrss through one setup and the first, unshuffled pass)"});
        report = json;
        // Only the workload-independent figures go into the JSON; the task
        // kind split is reported above it (and in the traced run).
        json.erase(std::remove_if(json.begin(), json.end(),
                                  [](const Metric& m) { return m.name.rfind("core.", 0) == 0; }),
                   json.end());
    }
    const double failedShare =
        state.attempted > 0 ? static_cast<double>(state.failed) / state.attempted : 1.0;
    report.push_back({"failed_share", failedShare, "ratio",
                      "(" + std::to_string(state.failed) + " of " +
                          std::to_string(state.attempted) + " task runs)"});

    std::printf("workload %s: seed %llu, %zu tasks over %zu inputs, %d passes, %s run, "
                "%zu open verdicts certified\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed), w.tasks.size(),
                w.inputs.size(), times.passes, traced ? "traced" : "untraced", certified);
    printReport(report);
    percentileReport(times, w);
    if (traced && !args.spansOut.empty() && !recorder.writeChromeTrace(args.spansOut)) {
        std::fprintf(stderr, "could not write %s\n", args.spansOut.c_str());
    }
    bool finite = true;
    for (const Metric& m : json) {
        finite = finite && std::isfinite(m.value);
    }
    printJson(state.failed == 0 && finite && state.attempted > 0, state.attempted, state.failed,
              json);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "etcs_perfbench: %s\n", e.what());
        return 1;
    }
}
