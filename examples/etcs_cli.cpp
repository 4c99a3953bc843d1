/// \file etcs_cli.cpp
/// Command-line front end: run the paper's design tasks on network/scenario
/// files (formats documented in railway/io.hpp).
///
///   etcs_cli verify   <network.rail> <scenario.sched> --rs <m> --rt <s>
///   etcs_cli generate <network.rail> <scenario.sched> --rs <m> --rt <s> [--dot out.dot]
///   etcs_cli optimize <network.rail> <scenario.sched> --rs <m> --rt <s> [--dot out.dot]
///   etcs_cli encode   <network.rail> <scenario.sched> --rs <m> --rt <s> --cnf out.cnf [--pure]
///   etcs_cli explain  <network.rail> <scenario.sched> --rs <m> --rt <s>
///                     [--pure] [--no-shrink] [--json] [--out <file>]
///                     [--cnf <file>] [--proof <file>]
///
/// A flag belongs to the commands shown with it: --dot to generate and
/// optimize, --cnf and --pure to encode and explain, the report's flags to
/// explain. Given to any other command it is a usage error (exit 2), never
/// silently ignored.
///
/// `encode` exports the satisfiability instance in DIMACS CNF format
/// (free-layout generation encoding; --pure pins the pure TTD layout as in
/// the verification task) for use with any external SAT solver.
///
/// `explain` encodes the scenario with clause provenance, solves it with
/// DRAT logging, certifies an UNSAT verdict with the independent proof
/// checker, and maps the certified core back to trains, TTD sections and
/// time steps (see docs/EXPLAIN.md). It prints only the report, as text or
/// with --json as JSON, to stdout or the --out file. --cnf / --proof export
/// the core's formula and proof so the certification can be replayed
/// externally with dratcheck.
///
/// Exit code: 0 = task solved (verification feasible / layout found;
///                explain: feasible, nothing to explain),
///            1 = proven infeasible, 2 = usage, input or pipeline error.
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/explain.hpp"
#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "railway/dot.hpp"
#include "railway/io.hpp"
#include "sat/proof.hpp"
#include "util/parse.hpp"

using namespace etcs;

namespace {

struct CliOptions {
    std::string command;
    std::string networkFile;
    std::string scenarioFile;
    Meters spatial{};
    Seconds temporal{};
    std::optional<std::string> dotFile;
    std::optional<std::string> cnfFile;
    bool pureLayout = false;
    // explain only
    bool shrink = true;
    bool json = false;
    std::optional<std::string> outFile;
    std::optional<std::string> proofFile;
};

void usage() {
    std::cerr << "usage: etcs_cli <verify|generate|optimize|encode|explain> <network.rail> "
                 "<scenario.sched> --rs <meters> --rt <seconds>\n"
                 "       generate, optimize: [--dot <file>]\n"
                 "       encode: --cnf <file> [--pure]\n"
                 "       explain: [--pure] [--no-shrink] [--json] [--out <file>] "
                 "[--cnf <file>] [--proof <file>]\n";
}

std::optional<CliOptions> parseArguments(int argc, char** argv) {
    if (argc < 4) {
        return std::nullopt;
    }
    CliOptions options;
    options.command = argv[1];
    options.networkFile = argv[2];
    options.scenarioFile = argv[3];
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--pure") == 0) {
            options.pureLayout = true;
            continue;
        }
        if (std::strcmp(argv[i], "--no-shrink") == 0) {
            options.shrink = false;
            continue;
        }
        if (std::strcmp(argv[i], "--json") == 0) {
            options.json = true;
            continue;
        }
        if (i + 1 >= argc) {
            return std::nullopt;
        }
        if (std::strcmp(argv[i], "--rs") == 0) {
            const auto metres = util::parseNumber<std::int64_t>(argv[i + 1]);
            if (!metres) {
                std::cerr << "error: --rs expects a whole number of metres\n";
                return std::nullopt;
            }
            options.spatial = Meters(*metres);
        } else if (std::strcmp(argv[i], "--rt") == 0) {
            const auto seconds = util::parseNumber<std::int64_t>(argv[i + 1]);
            if (!seconds) {
                std::cerr << "error: --rt expects a whole number of seconds\n";
                return std::nullopt;
            }
            options.temporal = Seconds(*seconds);
        } else if (std::strcmp(argv[i], "--dot") == 0) {
            options.dotFile = argv[i + 1];
        } else if (std::strcmp(argv[i], "--cnf") == 0) {
            options.cnfFile = argv[i + 1];
        } else if (std::strcmp(argv[i], "--out") == 0) {
            options.outFile = argv[i + 1];
        } else if (std::strcmp(argv[i], "--proof") == 0) {
            options.proofFile = argv[i + 1];
        } else {
            return std::nullopt;
        }
        ++i;
    }
    if (options.spatial.count() <= 0 || options.temporal.count() <= 0) {
        std::cerr << "error: --rs and --rt are required and must be positive\n";
        return std::nullopt;
    }
    if (options.command != "verify" && options.command != "generate" &&
        options.command != "optimize" && options.command != "encode" &&
        options.command != "explain") {
        return std::nullopt;
    }
    // A flag given to a command that does not use it is a usage error.
    const bool explain = options.command == "explain";
    const bool drawsLayout = options.command == "generate" || options.command == "optimize";
    const bool writesFormula = explain || options.command == "encode";
    if ((options.dotFile && !drawsLayout) ||
        ((options.cnfFile || options.pureLayout) && !writesFormula) ||
        (!explain && (!options.shrink || options.json || options.outFile || options.proofFile))) {
        return std::nullopt;
    }
    if (options.command == "encode" && !options.cnfFile) {
        std::cerr << "error: encode requires --cnf <file>\n";
        return std::nullopt;
    }
    return options;
}

/// The certified-core explanation pipeline (docs/EXPLAIN.md): write the
/// exported formula and proof, then the report; 0 feasible, 1 proven
/// infeasible, 2 when a file cannot be written or the pipeline failed.
int explain(const CliOptions& options, const core::Instance& instance) {
    core::ExplainOptions explainOptions;
    explainOptions.shrinkCore = options.shrink;
    const core::VssLayout pure(instance.graph());
    const core::ExplainResult result = core::explainInfeasibility(
        instance, options.pureLayout ? &pure : nullptr, explainOptions);

    if (options.cnfFile && !sat::writeDimacsFile(*options.cnfFile, result.formula)) {
        std::cerr << "error: cannot write " << *options.cnfFile << "\n";
        return 2;
    }
    if (options.proofFile) {
        std::ofstream out(*options.proofFile);
        if (!out) {
            std::cerr << "error: cannot write " << *options.proofFile << "\n";
            return 2;
        }
        sat::TextDratWriter writer(out);
        sat::writeDrat(writer, result.proof);
        writer.flush();
    }

    std::ostream* os = &std::cout;
    std::ofstream file;
    if (options.outFile) {
        file.open(*options.outFile);
        if (!file) {
            std::cerr << "error: cannot write " << *options.outFile << "\n";
            return 2;
        }
        os = &file;
    }
    if (options.json) {
        core::writeExplanationJson(*os, result);
    } else {
        core::writeExplanationText(*os, result);
    }

    if (result.feasible) {
        return 0;
    }
    if (!result.error.empty()) {
        std::cerr << "error: " << result.error << "\n";
        return 2;
    }
    return 1;
}

void maybeWriteDot(const CliOptions& options, const rail::SegmentGraph& graph,
                   const core::VssLayout& layout) {
    if (!options.dotFile) {
        return;
    }
    std::ofstream out(*options.dotFile);
    rail::writeDot(out, graph, &layout.flags());
    std::cout << "layout drawing written to " << *options.dotFile << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    const auto options = parseArguments(argc, argv);
    if (!options) {
        usage();
        return 2;
    }
    try {
        std::ifstream networkIn(options->networkFile);
        if (!networkIn) {
            std::cerr << "error: cannot open " << options->networkFile << "\n";
            return 2;
        }
        const rail::Network network = rail::readNetwork(networkIn);

        std::ifstream scenarioIn(options->scenarioFile);
        if (!scenarioIn) {
            std::cerr << "error: cannot open " << options->scenarioFile << "\n";
            return 2;
        }
        const rail::Scenario scenario = rail::readScenario(scenarioIn, network);

        const Resolution resolution{options->spatial, options->temporal};
        const core::Instance instance(network, scenario.trains, scenario.schedule, resolution);
        if (options->command == "explain") {
            return explain(*options, instance);
        }
        std::cout << "network '" << network.name() << "': "
                  << instance.graph().numSegments() << " segments, "
                  << instance.horizonSteps() << " time steps, " << instance.numRuns()
                  << " trains\n";

        if (options->command == "encode") {
            cnf::CollectingBackend collector;
            core::Encoder encoder(collector, instance);
            const core::VssLayout pure(instance.graph());
            encoder.encode(options->pureLayout ? &pure : nullptr);
            if (!sat::writeDimacsFile(*options->cnfFile, collector.formula())) {
                std::cerr << "error: cannot write " << *options->cnfFile << "\n";
                return 2;
            }
            std::cout << "DIMACS instance written to " << *options->cnfFile << " ("
                      << collector.numVariables() << " vars, " << collector.numClauses()
                      << " clauses, " << (options->pureLayout ? "pure-TTD" : "free")
                      << " layout)\n";
            return 0;
        }
        if (options->command == "verify") {
            const core::VssLayout pure(instance.graph());
            const auto result = core::verifySchedule(instance, pure);
            std::cout << "verification on the pure TTD layout ("
                      << pure.sectionCount(instance.graph()) << " sections): "
                      << (result.feasible ? "FEASIBLE" : "INFEASIBLE") << " ["
                      << result.stats.numVariables << " vars, "
                      << result.stats.runtimeSeconds << " s]\n";
            return result.feasible ? 0 : 1;
        }
        if (options->command == "generate") {
            const auto result = core::generateLayout(instance);
            if (!result.feasible) {
                std::cout << "no VSS layout can realize this schedule\n";
                return 1;
            }
            std::cout << "layout found: " << result.sectionCount << " TTD/VSS sections ("
                      << result.solution->layout.virtualBorderCount(instance.graph())
                      << " virtual borders) [" << result.stats.numVariables << " vars, "
                      << result.stats.runtimeSeconds << " s]\n";
            maybeWriteDot(*options, instance.graph(), result.solution->layout);
            return 0;
        }
        // optimize
        const auto result = core::optimizeSchedule(instance);
        if (result.verdict == core::OptimizeVerdict::HorizonTooShort) {
            std::cout << "the scenario horizon (" << instance.horizonSteps()
                      << " steps) is shorter than any possible completion (step "
                      << result.completionLowerBound
                      << " at the earliest) -- not proven infeasible; retry with a "
                         "longer horizon\n";
            return 1;
        }
        if (!result.feasible) {
            std::cout << "the trains cannot complete within the scenario horizon\n";
            return 1;
        }
        std::cout << "optimal completion: " << result.completionSteps << " time steps ("
                  << resolution.timeOf(result.completionSteps).clock() << ") with "
                  << result.sectionCount << " sections [" << result.stats.runtimeSeconds
                  << " s]\n";
        for (std::size_t r = 0; r < instance.numRuns(); ++r) {
            std::cout << "  " << scenario.trains.train(instance.runs()[r].train).name
                      << " arrives "
                      << resolution.timeOf(result.solution->traces[r].firstArrivalStep).clock()
                      << "\n";
        }
        maybeWriteDot(*options, instance.graph(), result.solution->layout);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
