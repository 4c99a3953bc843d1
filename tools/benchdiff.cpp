/// \file benchdiff.cpp
/// Diff two benchmark metric dumps (BENCH_*.json, the Registry::writeJson
/// format) and flag regressions.
///
///   benchdiff [--threshold <fraction>] [--pattern <substr>]... old.json new.json
///
/// Every numeric metric is flattened to a dotted key (counters.<name>,
/// gauges.<name>, histograms.<name>.<field>) and compared. Keys matching a
/// regression pattern (substring match; default: seconds, runtime,
/// conflicts, propagations) count as a regression when the new value exceeds
/// the old one by more than the threshold fraction (default 0.25). --pattern
/// replaces the default pattern set.
///
/// Exit code: 0 = no regressions, 1 = regressions found, 2 = usage/parse error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using etcs::util::JsonValue;

void flatten(const JsonValue& value, const std::string& prefix,
             std::map<std::string, double>& out) {
    switch (value.type) {
        case JsonValue::Type::Number: out[prefix] = value.number; break;
        case JsonValue::Type::Object:
            for (const auto& [name, member] : value.members) {
                flatten(member, prefix.empty() ? name : prefix + "." + name, out);
            }
            break;
        case JsonValue::Type::Array: {
            std::size_t index = 0;
            for (const JsonValue& item : value.items) {
                flatten(item, prefix + "." + std::to_string(index++), out);
            }
            break;
        }
        default: break;  // strings/bools/nulls are not comparable metrics
    }
}

std::map<std::string, double> loadMetrics(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw etcs::InputError("cannot open " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::map<std::string, double> out;
    flatten(etcs::util::parseJson(buffer.str()), "", out);
    return out;
}

bool matchesAny(const std::string& key, const std::vector<std::string>& patterns) {
    for (const std::string& pattern : patterns) {
        if (key.find(pattern) != std::string::npos) {
            return true;
        }
    }
    return false;
}

std::string formatNumber(double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", v);
    return buffer;
}

void usage() {
    std::cerr << "usage: benchdiff [--threshold <fraction>] [--pattern <substr>]... "
                 "<old.json> <new.json>\n";
}

}  // namespace

int main(int argc, char** argv) {
    double threshold = 0.25;
    std::vector<std::string> patterns;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
            const auto fraction = etcs::util::parseNumber<double>(argv[++i]);
            if (!fraction || !(*fraction >= 0.0)) {
                std::cerr << "error: --threshold expects a nonnegative fraction\n";
                usage();
                return 2;
            }
            threshold = *fraction;
        } else if (std::strcmp(argv[i], "--pattern") == 0 && i + 1 < argc) {
            patterns.emplace_back(argv[++i]);
        } else if (argv[i][0] == '-') {
            usage();
            return 2;
        } else {
            files.emplace_back(argv[i]);
        }
    }
    if (files.size() != 2) {
        usage();
        return 2;
    }
    if (patterns.empty()) {
        patterns = {"seconds", "runtime", "conflicts", "propagations"};
    }

    try {
        const auto oldMetrics = loadMetrics(files[0]);
        const auto newMetrics = loadMetrics(files[1]);

        int changed = 0;
        int regressions = 0;
        for (const auto& [key, newValue] : newMetrics) {
            const auto it = oldMetrics.find(key);
            if (it == oldMetrics.end()) {
                continue;  // new metric: informational only
            }
            const double oldValue = it->second;
            const double delta = newValue - oldValue;
            if (std::fabs(delta) < 1e-9) {
                continue;
            }
            ++changed;
            const bool watched = matchesAny(key, patterns);
            // Relative increase against the old value; a 0 -> positive jump
            // on a watched metric is always a regression.
            const bool regressed =
                watched && delta > 0.0 &&
                (oldValue <= 0.0 || delta / oldValue > threshold);
            if (regressed) {
                ++regressions;
            }
            std::cout << (regressed ? "REGRESSION " : "           ") << key << ": "
                      << formatNumber(oldValue) << " -> " << formatNumber(newValue)
                      << " (delta " << formatNumber(delta);
            if (oldValue != 0.0) {
                std::cout << ", " << formatNumber(100.0 * delta / oldValue) << "%";
            }
            std::cout << ")\n";
        }
        for (const auto& [key, oldValue] : oldMetrics) {
            if (newMetrics.find(key) == newMetrics.end()) {
                std::cout << "           " << key << ": removed (was "
                          << formatNumber(oldValue) << ")\n";
            }
        }
        std::cout << changed << " metric(s) changed, " << regressions
                  << " regression(s) beyond threshold " << formatNumber(threshold) << "\n";
        return regressions > 0 ? 1 : 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
