/// \file etcs_explain.cpp
/// Domain-level infeasibility explanations for ETCS L3 scenarios.
///
///   etcs_explain <network.rail> <scenario.sched> --rs <m> --rt <s>
///                [--pure] [--no-shrink] [--json] [--out <file>]
///                [--cnf-out <file>] [--proof-out <file>]
///
/// Encodes the scenario with clause provenance, solves it with DRAT
/// logging, certifies an UNSAT verdict with the independent proof checker,
/// and maps the certified core back to trains, TTD sections and time steps
/// (see docs/EXPLAIN.md). --cnf-out / --proof-out export the formula and
/// proof so the certification can be replayed externally with dratcheck.
///
/// Exit code: 0 = feasible (nothing to explain),
///            1 = proven infeasible (report written),
///            2 = usage, input, or pipeline error.
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/explain.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "railway/io.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof.hpp"
#include "util/parse.hpp"

using namespace etcs;

namespace {

struct Options {
    std::string networkFile;
    std::string scenarioFile;
    Meters spatial{};
    Seconds temporal{};
    bool pureLayout = false;
    bool shrink = true;
    bool json = false;
    std::optional<std::string> outFile;
    std::optional<std::string> cnfFile;
    std::optional<std::string> proofFile;
};

void usage() {
    std::cerr << "usage: etcs_explain <network.rail> <scenario.sched> --rs <meters> "
                 "--rt <seconds> [--pure] [--no-shrink] [--json] [--out <file>] "
                 "[--cnf-out <file>] [--proof-out <file>]\n";
}

std::optional<Options> parseArguments(int argc, char** argv) {
    if (argc < 3) {
        return std::nullopt;
    }
    Options options;
    options.networkFile = argv[1];
    options.scenarioFile = argv[2];
    for (int i = 3; i < argc; ++i) {
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
        } else if (std::strcmp(argv[i], "--out") == 0) {
            options.outFile = argv[i + 1];
        } else if (std::strcmp(argv[i], "--cnf-out") == 0) {
            options.cnfFile = argv[i + 1];
        } else if (std::strcmp(argv[i], "--proof-out") == 0) {
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
    return options;
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
        const core::Instance instance(network, scenario.trains, scenario.schedule,
                                      resolution);

        core::ExplainOptions explainOptions;
        explainOptions.shrinkCore = options->shrink;
        const core::VssLayout pure(instance.graph());
        const core::ExplainResult result = core::explainInfeasibility(
            instance, options->pureLayout ? &pure : nullptr, explainOptions);

        if (options->cnfFile) {
            if (!sat::writeDimacsFile(*options->cnfFile, result.formula)) {
                std::cerr << "error: cannot write " << *options->cnfFile << "\n";
                return 2;
            }
        }
        if (options->proofFile) {
            std::ofstream out(*options->proofFile);
            if (!out) {
                std::cerr << "error: cannot write " << *options->proofFile << "\n";
                return 2;
            }
            sat::TextDratWriter writer(out);
            sat::writeDrat(writer, result.proof);
            writer.flush();
        }

        std::ostream* os = &std::cout;
        std::ofstream file;
        if (options->outFile) {
            file.open(*options->outFile);
            if (!file) {
                std::cerr << "error: cannot write " << *options->outFile << "\n";
                return 2;
            }
            os = &file;
        }
        if (options->json) {
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
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
