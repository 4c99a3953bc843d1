#include "workloads.hpp"

#include <array>
#include <sstream>

#include "cnf/backend.hpp"
#include "core/validator.hpp"
#include "gen/generator.hpp"
#include "sat/drat_check.hpp"
#include "studies/studies.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace etcs;

const char* kindName(TaskKind kind) {
    switch (kind) {
        case TaskKind::Verify: return "verify";
        case TaskKind::Generate: return "generate";
        case TaskKind::Optimize: return "optimize";
    }
    return "unknown";
}

namespace {

std::string networkText(const rail::Network& network) {
    std::ostringstream out;
    rail::writeNetwork(out, network);
    return out.str();
}

std::string scenarioText(const std::string& name, const rail::TrainSet& trains,
                         const rail::Schedule& schedule, const rail::Network& network) {
    std::ostringstream out;
    rail::writeScenario(out, rail::Scenario{name, trains, schedule}, network);
    return out.str();
}

// ---- paper: Table I's own traffic ------------------------------------------

/// Table I as EXPERIMENTS.md records it: verification on the pure TTD layout
/// is UNSAT, generation finds `generateSections`, optimization completes in
/// `optimizeSteps` at `optimizeSections`.
struct PaperStudy {
    const char* slug;
    studies::CaseStudy (*make)();
    int generateSections;
    int optimizeSteps;
    int optimizeSections;
};

constexpr std::array<PaperStudy, 4> kPaper{{
    {"running_example", &studies::runningExample, 5, 9, 5},
    {"simple_layout", &studies::simpleLayout, 12, 17, 11},
    {"complex_layout", &studies::complexLayout, 23, 15, 22},
    {"nordlandsbanen", &studies::nordlandsbanen, 52, 41, 52},
}};

Workload paperWorkload(bool quick) {
    Workload w;
    w.name = "paper";
    w.taskLimitSeconds = 60.0;
    const std::size_t count = quick ? 2 : kPaper.size();
    for (std::size_t i = 0; i < count; ++i) {
        const PaperStudy& p = kPaper[i];
        const studies::CaseStudy study = p.make();
        const std::string rail = networkText(study.network);
        const std::size_t timed = w.inputs.size();
        w.inputs.push_back({std::string(p.slug) + ".timed", rail,
                            scenarioText(p.slug, study.trains, study.timedSchedule,
                                         study.network),
                            study.resolution});
        const std::size_t open = w.inputs.size();
        w.inputs.push_back({std::string(p.slug) + ".open", rail,
                            scenarioText(p.slug, study.trains, study.openSchedule,
                                         study.network),
                            study.resolution});
        w.tasks.push_back({std::string(p.slug) + "/verify", TaskKind::Verify, timed,
                           LayoutKind::Pure, Verdict::Unsat, -1, -1});
        w.tasks.push_back({std::string(p.slug) + "/generate", TaskKind::Generate, timed,
                           LayoutKind::None, Verdict::Sat, p.generateSections, -1});
        w.tasks.push_back({std::string(p.slug) + "/optimize", TaskKind::Optimize, open,
                           LayoutKind::None, Verdict::Sat, p.optimizeSections,
                           p.optimizeSteps});
    }
    return w;
}

// ---- frontier: hard corridors verified with one long solve -----------------

/// studies::corridor at r_s = 0.5 km, r_t = 1 min, chosen in the 0.3-3 s
/// band near the SAT/UNSAT boundary. The verdicts are pinned; the UNSAT
/// ones were certified with tools/dratcheck (perfbench/README.md).
struct FrontierEntry {
    int stations;
    int trains;
    int spacingMeters;
    LayoutKind layout;
    Verdict verdict;
};

constexpr std::array<FrontierEntry, 5> kFrontier{{
    {4, 6, 2000, LayoutKind::Pure, Verdict::Sat},
    {2, 7, 1500, LayoutKind::Finest, Verdict::Unsat},
    {3, 6, 2250, LayoutKind::Finest, Verdict::Sat},
    {2, 6, 1500, LayoutKind::Finest, Verdict::Unsat},
    {4, 6, 2250, LayoutKind::Pure, Verdict::Sat},
}};

Workload frontierWorkload(bool quick) {
    Workload w;
    w.name = "frontier";
    w.taskLimitSeconds = 60.0;
    const std::size_t count = quick ? 2 : kFrontier.size();
    const Resolution resolution{Meters(500), Seconds(60)};
    for (std::size_t i = 0; i < count; ++i) {
        const FrontierEntry& f = kFrontier[i];
        const studies::CaseStudy study =
            studies::corridor(f.stations, f.trains, Meters(f.spacingMeters), resolution);
        const std::string name = "corridor_s" + std::to_string(f.stations) + "_t" +
                                 std::to_string(f.trains) + "_" +
                                 std::to_string(f.spacingMeters) + "m_" +
                                 (f.layout == LayoutKind::Pure ? "pure" : "finest");
        w.tasks.push_back({name + "/verify", TaskKind::Verify, w.inputs.size(), f.layout,
                           f.verdict, -1, -1});
        w.inputs.push_back({name, networkText(study.network),
                            scenarioText(name, study.trains, study.timedSchedule,
                                         study.network),
                            resolution});
    }
    return w;
}

// ---- corpus: the etcsgen families, encode-bound ----------------------------

/// etcsgen seeds per benchmark seed, and the sizes drawn. Clause counts are
/// heavy-tailed, so one seed's 108 scenarios vary too much in total cost
/// from seed to seed; 48 seeds pooled keep the composition's share of the
/// run-to-run spread to a few percent. Sizes stop at 12: at 16 stations,
/// 8 trains and a tight deadline a single-track line can need 13k conflicts
/// (0.27 s), one such draw every few seeds. See perfbench/README.md.
constexpr int kCorpusSubSeeds = 48;
constexpr std::array<int, 2> kCorpusSizes{8, 12};
constexpr std::array<int, 2> kCorpusTrains{6, 8};

Workload corpusWorkload(std::uint64_t seed, bool quick) {
    Workload w;
    w.name = "corpus";
    w.taskLimitSeconds = 10.0;
    const int subSeeds = quick ? 1 : kCorpusSubSeeds;
    for (int k = 0; k < subSeeds; ++k) {
        for (gen::Family family : gen::allFamilies()) {
            for (gen::ScheduleKind kind : gen::allScheduleKinds()) {
                for (int size : kCorpusSizes) {
                    for (int trains : kCorpusTrains) {
                        gen::GenParams params;
                        params.family = family;
                        params.schedule = kind;
                        params.seed = seed * kCorpusSubSeeds + static_cast<std::uint64_t>(k);
                        params.size = size;
                        params.trains = trains;
                        const gen::GeneratedScenario g = gen::generate(params);
                        // etcsgen's construction: feasible is SAT (simulated
                        // witness), infeasible is UNSAT (under the lint bound).
                        const Verdict verdict = kind == gen::ScheduleKind::Feasible ? Verdict::Sat
                                                : kind == gen::ScheduleKind::Infeasible
                                                    ? Verdict::Unsat
                                                    : Verdict::Open;
                        w.tasks.push_back({g.name + "/verify", TaskKind::Verify, w.inputs.size(),
                                           LayoutKind::Finest, verdict, -1, -1});
                        w.inputs.push_back({g.name, networkText(g.network),
                                            scenarioText(g.name, g.trains, g.schedule, g.network),
                                            params.resolution});
                    }
                }
            }
        }
    }
    return w;
}

}  // namespace

std::optional<Workload> makeWorkload(std::string_view name, std::uint64_t seed, bool quick) {
    if (name == "paper") {
        return paperWorkload(quick);
    }
    if (name == "frontier") {
        return frontierWorkload(quick);
    }
    if (name == "corpus") {
        return corpusWorkload(seed, quick);
    }
    return std::nullopt;
}

Loaded setUp(const Workload& workload, Recorder* recorder) {
    std::vector<LayoutKind> layouts(workload.inputs.size(), LayoutKind::None);
    for (const TaskSpec& task : workload.tasks) {
        if (task.kind == TaskKind::Verify) {
            layouts[task.input] = task.layout;
        }
    }
    Loaded loaded;
    loaded.reserve(workload.inputs.size());
    for (std::size_t i = 0; i < workload.inputs.size(); ++i) {
        const InputText& text = workload.inputs[i];
        std::unique_ptr<LoadedInput> input;
        {
            const Scope span(recorder, "railway.parse");
            std::istringstream railIn(text.rail);
            rail::Network network = rail::readNetwork(railIn);
            std::istringstream schedIn(text.sched);
            rail::Scenario scenario = rail::readScenario(schedIn, network);
            input = std::make_unique<LoadedInput>(std::move(network), std::move(scenario));
        }
        {
            const Scope span(recorder, "core.instance");
            input->instance.emplace(input->network, input->scenario.trains,
                                    input->scenario.schedule, text.resolution);
        }
        if (layouts[i] == LayoutKind::Pure) {
            input->layout.emplace(input->instance->graph());
        } else if (layouts[i] == LayoutKind::Finest) {
            input->layout.emplace(core::VssLayout::finest(input->instance->graph()));
        }
        loaded.push_back(std::move(input));
    }
    return loaded;
}

Answer runTask(const TaskSpec& task, const LoadedInput& input,
               const core::TaskOptions& options) {
    Answer answer;
    switch (task.kind) {
        case TaskKind::Verify: {
            auto r = core::verifySchedule(*input.instance, *input.layout, options);
            answer.feasible = r.feasible;
            answer.stats = r.stats;
            answer.solution = std::move(r.solution);
            break;
        }
        case TaskKind::Generate: {
            auto r = core::generateLayout(*input.instance, options);
            answer.feasible = r.feasible;
            answer.sections = r.sectionCount;
            answer.stats = r.stats;
            answer.solution = std::move(r.solution);
            break;
        }
        case TaskKind::Optimize: {
            auto r = core::optimizeSchedule(*input.instance, options);
            answer.feasible = r.verdict == core::OptimizeVerdict::Feasible;
            answer.sections = r.sectionCount;
            answer.steps = r.completionSteps;
            answer.stats = r.stats;
            answer.solution = std::move(r.solution);
            break;
        }
    }
    return answer;
}

std::string checkAnswer(const TaskSpec& task, const LoadedInput& input, const Answer& answer,
                        std::optional<Verdict> resolved) {
    const Verdict expected = task.expected == Verdict::Open
                                 ? resolved.value_or(Verdict::Open)
                                 : task.expected;
    if (expected == Verdict::Open) {
        return "verdict could not be certified";
    }
    if (answer.feasible != (expected == Verdict::Sat)) {
        return std::string("answered ") + (answer.feasible ? "SAT" : "UNSAT") + ", expected " +
               (expected == Verdict::Sat ? "SAT" : "UNSAT");
    }
    if (!answer.feasible) {
        return {};
    }
    if (!answer.solution) {
        return "SAT answer without a witness";
    }
    const std::vector<std::string> violations =
        core::validateSolution(*input.instance, *answer.solution);
    if (!violations.empty()) {
        return "witness rejected by validateSolution: " + violations.front();
    }
    if (task.sections >= 0 && answer.sections != task.sections) {
        return "sections " + std::to_string(answer.sections) + ", expected " +
               std::to_string(task.sections);
    }
    if (task.steps >= 0 && answer.steps != task.steps) {
        return "completion steps " + std::to_string(answer.steps) + ", expected " +
               std::to_string(task.steps);
    }
    return {};
}

std::unique_ptr<Recorded> record(const TaskSpec& task, const LoadedInput& input) {
    auto recorded = std::make_unique<Recorded>();
    BoundaryCounts counts;
    core::TaskOptions options;
    options.backendFactory = [&]() -> std::unique_ptr<cnf::SatBackend> {
        recorded->formula = {};
        recorded->proof.clear();
        return std::make_unique<BoundaryBackend>(cnf::makeInternalBackend(), nullptr, counts,
                                                 &recorded->formula, &recorded->proof);
    };
    recorded->answer = runTask(task, input, options);
    recorded->solverUsed = counts.solveCalls > 0;
    return recorded;
}

std::optional<Verdict> certify(const TaskSpec& task, const LoadedInput& input,
                               std::string& error) {
    const std::unique_ptr<Recorded> recorded = record(task, input);
    const Verdict verdict = recorded->answer.feasible ? Verdict::Sat : Verdict::Unsat;
    if (verdict == Verdict::Sat || !recorded->solverUsed) {
        // SAT: checkAnswer validates the witness on every pass. Gate UNSAT:
        // the lint and reach rejections are sound proofs on their own.
        return verdict;
    }
    const sat::DratCheckResult check = sat::checkDrat(recorded->formula, recorded->proof.proof());
    if (!check.verified) {
        error = "DRAT check failed: " + check.error;
        return std::nullopt;
    }
    return verdict;
}

}  // namespace perfbench
