/// \file workloads.hpp
/// The benchmark's three workloads: inputs written as `.rail`/`.sched` text,
/// the tasks run over them, and the reference answers each task is checked
/// against. See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/tasks.hpp"
#include "railway/io.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof.hpp"
#include "util/units.hpp"

namespace perfbench {

class Recorder;

enum class TaskKind { Verify, Generate, Optimize };
enum class LayoutKind { None, Pure, Finest };
/// Reference verdict. Open: not known in advance (etcsgen's tight kind); the
/// benchmark certifies it once per run, outside the timed passes.
enum class Verdict { Sat, Unsat, Open };

[[nodiscard]] const char* kindName(TaskKind kind);

/// One scenario as a CLI user receives it: two text files and the (r_s, r_t)
/// resolution given on the command line.
struct InputText {
    std::string name;
    std::string rail;
    std::string sched;
    etcs::Resolution resolution;
};

struct TaskSpec {
    std::string name;
    TaskKind kind = TaskKind::Verify;
    std::size_t input = 0;                ///< index into Workload::inputs
    LayoutKind layout = LayoutKind::None;  ///< verify only
    Verdict expected = Verdict::Open;
    int sections = -1;  ///< expected TTD/VSS section count (-1: unchecked)
    int steps = -1;     ///< expected completion steps (-1: unchecked)
};

struct Workload {
    std::string name;
    std::vector<InputText> inputs;
    std::vector<TaskSpec> tasks;
    double taskLimitSeconds = 0.0;  ///< a slower answer counts as failed
};

/// Build a workload's inputs (untimed). `corpus` draws its scenarios from
/// `seed`; `paper` and `frontier` are frozen parameter lists. `quick` shrinks
/// every workload for the self-test.
[[nodiscard]] std::optional<Workload> makeWorkload(std::string_view name, std::uint64_t seed,
                                                   bool quick);

/// One parsed and discretized input. Not movable: the instance refers to
/// the network and scenario it was built from.
struct LoadedInput {
    etcs::rail::Network network;
    etcs::rail::Scenario scenario;
    std::optional<etcs::core::Instance> instance;
    std::optional<etcs::core::VssLayout> layout;  ///< for the verify task, if any

    LoadedInput(etcs::rail::Network n, etcs::rail::Scenario s)
        : network(std::move(n)), scenario(std::move(s)) {}
    LoadedInput(const LoadedInput&) = delete;
    LoadedInput& operator=(const LoadedInput&) = delete;
};

using Loaded = std::vector<std::unique_ptr<LoadedInput>>;

/// Parse every input's text and build every core::Instance (the work
/// setup_s measures). With a recorder, each call becomes a "railway.parse"
/// or "core.instance" span.
[[nodiscard]] Loaded setUp(const Workload& workload, Recorder* recorder);

/// A task's answer, in the library's own terms.
struct Answer {
    bool feasible = false;
    int sections = 0;
    int steps = 0;
    etcs::core::TaskStats stats;
    std::optional<etcs::core::Solution> solution;
};

/// Run one task through the library's public task API.
[[nodiscard]] Answer runTask(const TaskSpec& task, const LoadedInput& input,
                             const etcs::core::TaskOptions& options);

/// Check an answer against the reference (`resolved` replaces an Open
/// expected verdict). Every SAT witness goes through core::validateSolution.
/// Returns an empty string when the answer is right.
[[nodiscard]] std::string checkAnswer(const TaskSpec& task, const LoadedInput& input,
                                      const Answer& answer, std::optional<Verdict> resolved);

/// A task run once through a recording backend (outside the timed passes).
struct Recorded {
    Answer answer;
    bool solverUsed = false;           ///< false: a lint/reach gate answered
    etcs::sat::CnfFormula formula;     ///< every clause the task added
    etcs::sat::MemoryProofWriter proof;  ///< the solver's DRAT proof
};

[[nodiscard]] std::unique_ptr<Recorded> record(const TaskSpec& task, const LoadedInput& input);

/// Settle an Open verdict: a SAT witness must validate and a solver UNSAT
/// must be DRAT-certified (sat::checkDrat); a lint or reach rejection is
/// itself a proof. Returns nullopt (with `error` set) when neither holds.
[[nodiscard]] std::optional<Verdict> certify(const TaskSpec& task, const LoadedInput& input,
                                             std::string& error);

}  // namespace perfbench
