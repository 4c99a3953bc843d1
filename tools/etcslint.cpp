/// \file etcslint.cpp
/// Static analysis front-end for layouts, schedules and encodings.
///
/// Usage: etcslint [options] <network.rail> [scenario.sched] [formula.cnf|.dimacs]
///
/// Runs the instance linter (structural network checks, schedule feasibility
/// lower bounds) over the given files and, when a DIMACS file is present, the
/// CNF linter over the formula. Error-severity schedule findings are proofs
/// of unsatisfiability: the tool reports "schedule proven infeasible" without
/// ever invoking a SAT solver. See docs/LINTING.md for the code catalogue.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lint/cnf_lint.hpp"
#include "lint/diagnostics.hpp"
#include "lint/rail_lint.hpp"
#include "lint/reach.hpp"
#include "obs/trace.hpp"
#include "railway/segment_graph.hpp"
#include "sat/dimacs.hpp"
#include "util/units.hpp"

namespace {

using etcs::lint::LintReport;

void printUsage(std::ostream& os) {
    os << "usage: etcslint [options] <network.rail> [scenario.sched] [formula.cnf]\n"
          "  --rs <meters>    spatial resolution r_s for discretization (default 500)\n"
          "  --rt <seconds>   temporal resolution r_t for discretization (default 30)\n"
          "  --reach          run the reachability analysis (R-codes) and report\n"
          "                   per-stop time windows (see docs/REACHABILITY.md)\n"
          "  --json           machine-readable JSON report instead of text\n"
          "  --codes          list every diagnostic code and exit\n"
          "  -h, --help       show this help\n"
          "Files are classified by extension: .rail network, .sched scenario,\n"
          ".cnf/.dimacs DIMACS formula. Exit code 0 when clean (warnings allowed),\n"
          "1 when any error-severity diagnostic was found, 2 on usage/IO errors.\n";
}

/// Deterministic window report for `etcslint --reach`: one entry per analyzed
/// run with the interval hull at the origin and every stop. Text and JSON
/// renderings share the same traversal so their contents always agree.
void writeReachReport(std::ostream& os, bool json, const etcs::rail::SegmentGraph& graph,
                      const etcs::rail::TrainSet& trains, const etcs::rail::Schedule& schedule,
                      const etcs::lint::ScheduleReach& reach) {
    if (json) {
        os << "{\"analyzed\":" << (reach.analysis ? "true" : "false");
    }
    if (!reach.analysis) {
        if (json) {
            os << ",\"runs\":[]}";
        } else {
            os << "reach: analysis skipped (no positive horizon)\n";
        }
        return;
    }
    const etcs::lint::ReachAnalysis& analysis = *reach.analysis;
    const etcs::rail::Network& network = graph.network();
    if (json) {
        os << ",\"horizon_steps\":" << analysis.horizonSteps()
           << ",\"iterations\":" << analysis.iterations()
           << ",\"violations\":" << analysis.violations().size()
           << ",\"provably_infeasible\":" << (analysis.provablyInfeasible() ? "true" : "false")
           << ",\"runs\":[";
    }
    for (std::size_t run = 0; run < analysis.numRuns(); ++run) {
        const etcs::rail::DiscreteRun& r = analysis.run(run);
        const etcs::rail::TrainRun& scheduleRun =
            schedule.runs()[reach.scheduleRunIndex[run]];
        const std::string& train = trains.train(scheduleRun.train).name;
        const auto window = [&](etcs::SegmentId segment) {
            return analysis.window(run, segment);
        };
        if (json) {
            os << (run > 0 ? "," : "") << "{\"train\":\"" << etcs::obs::jsonEscape(train)
               << "\",\"schedule_run\":" << reach.scheduleRunIndex[run]
               << ",\"cutoff_step\":" << analysis.runCutoffStep(run)
               << ",\"prompt_cutoff\":" << (analysis.promptCutoff(run) ? "true" : "false")
               << ",\"windows\":[";
            const etcs::lint::StepWindow origin = window(r.originSegment);
            os << "{\"station\":\""
               << etcs::obs::jsonEscape(network.station(scheduleRun.origin).name)
               << "\",\"role\":\"origin\",\"earliest\":" << origin.earliest
               << ",\"latest\":" << origin.latest << "}";
            for (std::size_t j = 0; j < r.stops.size(); ++j) {
                const etcs::lint::StepWindow w = window(r.stops[j].segment);
                os << ",{\"station\":\""
                   << etcs::obs::jsonEscape(network.station(scheduleRun.stops[j].station).name)
                   << "\",\"role\":\""
                   << (r.stops[j].arrivalStep ? "pinned" : "open") << "\"";
                if (r.stops[j].arrivalStep) {
                    os << ",\"arrival_step\":" << *r.stops[j].arrivalStep;
                }
                os << ",\"dwell_steps\":" << r.stops[j].dwellSteps
                   << ",\"earliest\":" << w.earliest << ",\"latest\":" << w.latest << "}";
            }
            os << "]}";
        } else {
            const auto hull = [](const etcs::lint::StepWindow& w) {
                return w.empty() ? std::string("[empty]")
                                 : "[" + std::to_string(w.earliest) + "," +
                                       std::to_string(w.latest) + "]";
            };
            os << "reach: train " << train << ": origin "
               << network.station(scheduleRun.origin).name << " "
               << hull(window(r.originSegment));
            for (std::size_t j = 0; j < r.stops.size(); ++j) {
                os << "; " << network.station(scheduleRun.stops[j].station).name << " "
                   << hull(window(r.stops[j].segment));
                if (r.stops[j].arrivalStep) {
                    os << " pinned@" << *r.stops[j].arrivalStep;
                }
            }
            os << "; cutoff " << analysis.runCutoffStep(run)
               << (analysis.promptCutoff(run) ? " (prompt)" : "") << "\n";
        }
    }
    if (json) {
        os << "]}";
    }
}

[[nodiscard]] bool endsWith(const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] std::optional<long> parseLong(const std::string& text) {
    try {
        std::size_t pos = 0;
        const long value = std::stol(text, &pos);
        if (pos != text.size()) {
            return std::nullopt;
        }
        return value;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

}  // namespace

int main(int argc, char** argv) {
    long spatialMeters = 500;
    long temporalSeconds = 30;
    bool json = false;
    bool reachMode = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            printUsage(std::cout);
            return 0;
        }
        if (arg == "--codes") {
            for (const etcs::lint::CodeInfo& info : etcs::lint::knownCodes()) {
                std::cout << info.code << "  " << etcs::lint::severityName(info.severity)
                          << "  " << info.summary << "\n";
            }
            return 0;
        }
        if (arg == "--json") {
            json = true;
            continue;
        }
        if (arg == "--reach") {
            reachMode = true;
            continue;
        }
        if (arg == "--rs" || arg == "--rt") {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg << " needs a value\n";
                return 2;
            }
            const auto value = parseLong(argv[++i]);
            if (!value || *value <= 0) {
                std::cerr << "error: " << arg << " needs a positive integer, got '"
                          << argv[i] << "'\n";
                return 2;
            }
            (arg == "--rs" ? spatialMeters : temporalSeconds) = *value;
            continue;
        }
        if (!arg.empty() && arg.front() == '-') {
            std::cerr << "error: unknown option '" << arg << "'\n";
            printUsage(std::cerr);
            return 2;
        }
        files.push_back(arg);
    }
    if (files.empty()) {
        printUsage(std::cerr);
        return 2;
    }

    std::string networkFile;
    std::string scenarioFile;
    std::string cnfFile;
    for (const std::string& file : files) {
        std::string* slot = nullptr;
        if (endsWith(file, ".rail")) {
            slot = &networkFile;
        } else if (endsWith(file, ".sched")) {
            slot = &scenarioFile;
        } else if (endsWith(file, ".cnf") || endsWith(file, ".dimacs")) {
            slot = &cnfFile;
        } else {
            std::cerr << "error: cannot classify '" << file
                      << "' (expected .rail, .sched, .cnf or .dimacs)\n";
            return 2;
        }
        if (!slot->empty()) {
            std::cerr << "error: more than one " << file.substr(file.rfind('.'))
                      << " file given\n";
            return 2;
        }
        *slot = file;
    }
    if (networkFile.empty() && !scenarioFile.empty()) {
        std::cerr << "error: a scenario needs its network (.rail) file\n";
        return 2;
    }

    const etcs::Resolution resolution{etcs::Meters(spatialMeters),
                                      etcs::Seconds(temporalSeconds)};
    bool provenInfeasible = false;
    bool anyErrors = false;
    bool first = true;
    if (json) {
        std::cout << "{\"reports\":[";
    }
    auto show = [&](const std::string& file, const LintReport& report,
                    const std::string& reachJson = std::string()) {
        anyErrors = anyErrors || report.hasErrors();
        if (json) {
            if (!first) {
                std::cout << ",";
            }
            std::cout << "{\"file\":\"" << etcs::obs::jsonEscape(file) << "\",\"report\":";
            report.writeJson(std::cout);
            if (!reachJson.empty()) {
                std::cout << ",\"reach\":" << reachJson;
            }
            std::cout << "}";
        } else {
            if (report.empty()) {
                std::cout << file << ": no diagnostics\n";
            } else {
                report.write(std::cout, file);
            }
        }
        first = false;
    };

    try {
        std::optional<etcs::rail::Network> network;
        if (!networkFile.empty()) {
            std::ifstream in(networkFile);
            if (!in) {
                std::cerr << "error: cannot open " << networkFile << "\n";
                return 2;
            }
            LintReport report;
            network = etcs::lint::lintNetworkFile(in, report);
            if (scenarioFile.empty()) {
                etcs::lint::lintNetwork(*network, report);
            }
            show(networkFile, report);
        }
        if (!scenarioFile.empty()) {
            std::ifstream in(scenarioFile);
            if (!in) {
                if (json) {
                    std::cout << "]}\n";
                }
                std::cerr << "error: cannot open " << scenarioFile << "\n";
                return 2;
            }
            LintReport report;
            const etcs::rail::Scenario scenario =
                etcs::lint::lintScenarioFile(in, *network, report);
            etcs::lint::lintScenario(*network, scenario.trains, scenario.schedule,
                                     resolution, report);
            std::string reachJson;
            std::string reachText;
            if (reachMode) {
                // The reachability fixpoint needs a well-formed network for
                // the segment graph; skip it when structural lints failed.
                LintReport structural;
                etcs::lint::lintNetwork(*network, structural);
                if (!structural.hasErrors()) {
                    const etcs::rail::SegmentGraph graph(*network, resolution);
                    etcs::lint::lintReachability(graph, scenario.trains, scenario.schedule,
                                                 report);
                    const etcs::lint::ScheduleReach reach = etcs::lint::analyzeSchedule(
                        graph, scenario.trains, scenario.schedule);
                    std::ostringstream os;
                    writeReachReport(os, json, graph, scenario.trains, scenario.schedule,
                                     reach);
                    (json ? reachJson : reachText) = os.str();
                }
            }
            for (const char* code : {"L020", "L021", "L022", "L023", "L024", "L025",
                                     "L026", "L027", "R001", "R002"}) {
                provenInfeasible = provenInfeasible || report.has(code);
            }
            show(scenarioFile, report, reachJson);
            if (!reachText.empty()) {
                std::cout << reachText;
            }
        }
        if (!cnfFile.empty()) {
            std::ifstream in(cnfFile);
            if (!in) {
                if (json) {
                    std::cout << "]}\n";
                }
                std::cerr << "error: cannot open " << cnfFile << "\n";
                return 2;
            }
            const etcs::sat::CnfFormula formula = etcs::sat::readDimacs(in);
            const etcs::lint::CnfLintResult result = etcs::lint::lintFormula(formula);
            show(cnfFile, result.report);
        }
    } catch (const std::exception& e) {
        if (json) {
            std::cout << "]}\n";
        }
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    if (json) {
        std::cout << "],\"errors\":" << (anyErrors ? "true" : "false")
                  << ",\"proven_infeasible\":" << (provenInfeasible ? "true" : "false")
                  << "}\n";
    } else {
        if (provenInfeasible) {
            std::cout << "schedule proven infeasible (no SAT solver required)\n";
        }
        if (!anyErrors) {
            std::cout << "clean: no error-severity findings\n";
        }
    }
    return anyErrors ? 1 : 0;
}
