/// \file etcsgen.cpp
/// Emit parameterized, seed-deterministic benchmark scenarios.
///
/// Usage:
///   etcsgen --family <f|all> --seed <n> [--size <n>] [--trains <n>]
///           [--schedule <feasible|tight|infeasible|all>]
///           [--rs <metres>] [--rt <seconds>] [--out <dir>] [--dimacs]
///
/// For every selected (family, schedule-kind) combination one instance is
/// generated and written as three files under --out (default "."):
///   <name>.rail   the network (strict readNetwork round-trips it),
///   <name>.sched  the trains + fully timed schedule,
///   <name>.json   a manifest with seed + parameters for exact reproduction.
/// With --dimacs additionally <name>.cnf: the verification encoding on the
/// finest layout, through the same shared DIMACS writer as `etcs_cli encode`.
///
/// Identical parameters produce byte-identical files on every platform (the
/// generator draws raw mt19937_64 outputs; see docs/GENERATOR.md).
/// Exit code: 0 = all instances written, 2 = usage or I/O error.
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "gen/generator.hpp"
#include "railway/io.hpp"
#include "sat/dimacs.hpp"
#include "util/parse.hpp"

namespace {

void printUsage(std::ostream& os) {
    os << "usage: etcsgen --family <f|all> --seed <n> [--size <n>] [--trains <n>]\n"
          "               [--schedule <feasible|tight|infeasible|all>]\n"
          "               [--rs <metres>] [--rt <seconds>] [--out <dir>] [--dimacs]\n"
          "  families: corridor station junction ring single_track network\n";
}

}  // namespace

int main(int argc, char** argv) {
    using etcs::gen::Family;
    using etcs::gen::GenParams;
    using etcs::gen::ScheduleKind;

    std::vector<Family> families;
    std::vector<ScheduleKind> kinds;
    GenParams base;
    std::string outDir = ".";
    bool dimacs = false;
    bool sawFamily = false;
    bool sawSeed = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> std::optional<std::string> {
            if (i + 1 >= argc) {
                std::cerr << "error: " << flag << " expects a value\n";
                return std::nullopt;
            }
            return std::string(argv[++i]);
        };
        // The flag's value as an integer: nullopt when it is missing or not
        // wholly a number.
        auto integer = [&](const char* flag) -> std::optional<long long> {
            const auto v = value(flag);
            return v ? etcs::util::parseNumber<long long>(*v) : std::nullopt;
        };
        if (arg == "-h" || arg == "--help") {
            printUsage(std::cout);
            return 0;
        } else if (arg == "--family") {
            const auto v = value("--family");
            if (!v) {
                return 2;
            }
            sawFamily = true;
            if (*v == "all") {
                families.assign(etcs::gen::allFamilies().begin(),
                                etcs::gen::allFamilies().end());
            } else if (const auto family = etcs::gen::parseFamily(*v)) {
                families.push_back(*family);
            } else {
                std::cerr << "error: unknown family '" << *v << "'\n";
                printUsage(std::cerr);
                return 2;
            }
        } else if (arg == "--schedule") {
            const auto v = value("--schedule");
            if (!v) {
                return 2;
            }
            if (*v == "all") {
                kinds.assign(etcs::gen::allScheduleKinds().begin(),
                             etcs::gen::allScheduleKinds().end());
            } else if (const auto kind = etcs::gen::parseScheduleKind(*v)) {
                kinds.push_back(*kind);
            } else {
                std::cerr << "error: unknown schedule kind '" << *v << "'\n";
                printUsage(std::cerr);
                return 2;
            }
        } else if (arg == "--seed") {
            const auto number = integer("--seed");
            if (!number || *number < 0) {
                std::cerr << "error: --seed expects a nonnegative integer\n";
                return 2;
            }
            base.seed = static_cast<std::uint64_t>(*number);
            sawSeed = true;
        } else if (arg == "--size") {
            const auto number = integer("--size");
            if (!number || *number < 1 || *number > std::numeric_limits<int>::max()) {
                std::cerr << "error: --size expects a positive integer\n";
                return 2;
            }
            base.size = static_cast<int>(*number);
        } else if (arg == "--trains") {
            const auto number = integer("--trains");
            if (!number || *number < 0 || *number > std::numeric_limits<int>::max()) {
                std::cerr << "error: --trains expects a nonnegative integer\n";
                return 2;
            }
            base.trains = static_cast<int>(*number);
        } else if (arg == "--rs") {
            const auto number = integer("--rs");
            if (!number || *number < 1) {
                std::cerr << "error: --rs expects a positive metre count\n";
                return 2;
            }
            base.resolution.spatial = etcs::Meters(*number);
        } else if (arg == "--rt") {
            const auto number = integer("--rt");
            if (!number || *number < 1) {
                std::cerr << "error: --rt expects a positive second count\n";
                return 2;
            }
            base.resolution.temporal = etcs::Seconds(*number);
        } else if (arg == "--out") {
            const auto v = value("--out");
            if (!v) {
                return 2;
            }
            outDir = *v;
        } else if (arg == "--dimacs") {
            dimacs = true;
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n";
            printUsage(std::cerr);
            return 2;
        }
    }
    if (!sawFamily || !sawSeed) {
        printUsage(std::cerr);
        return 2;
    }
    if (kinds.empty()) {
        kinds.push_back(base.schedule);
    }

    try {
        for (Family family : families) {
            for (ScheduleKind kind : kinds) {
                GenParams params = base;
                params.family = family;
                params.schedule = kind;
                const auto scenario = etcs::gen::generate(params);
                const std::string stem = outDir + "/" + scenario.name;

                auto writeText = [&](const std::string& path, auto&& writer) {
                    std::ofstream out(path);
                    if (out) {
                        writer(out);
                        out.flush();
                    }
                    if (!out) {
                        std::cerr << "error: cannot write " << path << "\n";
                        return false;
                    }
                    return true;
                };
                const bool ok =
                    writeText(stem + ".rail",
                              [&](std::ostream& out) {
                                  etcs::rail::writeNetwork(out, scenario.network);
                              }) &&
                    writeText(stem + ".sched",
                              [&](std::ostream& out) {
                                  etcs::rail::writeScenario(
                                      out,
                                      etcs::rail::Scenario{scenario.name, scenario.trains,
                                                           scenario.schedule},
                                      scenario.network);
                              }) &&
                    writeText(stem + ".json", [&](std::ostream& out) {
                        out << etcs::gen::manifestJson(scenario);
                    });
                if (!ok) {
                    return 2;
                }

                std::string note;
                if (dimacs) {
                    const etcs::core::Instance instance(scenario.network, scenario.trains,
                                                        scenario.schedule, params.resolution);
                    etcs::cnf::CollectingBackend backend;
                    etcs::core::Encoder encoder(backend, instance);
                    const auto finest = etcs::core::VssLayout::finest(instance.graph());
                    encoder.encode(&finest);
                    const auto formula = backend.takeFormula();
                    if (!etcs::sat::writeDimacsFile(stem + ".cnf", formula)) {
                        std::cerr << "error: writing " << stem
                                  << ".cnf failed; partial output removed\n";
                        return 2;
                    }
                    note = ", " + std::to_string(formula.numVariables) + " vars, " +
                           std::to_string(formula.clauses.size()) + " clauses";
                }
                std::cout << scenario.name << ": " << scenario.network.numTracks()
                          << " tracks, " << scenario.schedule.size() << " runs" << note
                          << " -> " << stem << ".{rail,sched,json"
                          << (dimacs ? ",cnf" : "") << "}\n";
            }
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
