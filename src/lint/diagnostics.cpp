#include "lint/diagnostics.hpp"

#include <array>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace etcs::lint {

namespace {

constexpr std::array<CodeInfo, 37> kCodes{{
    // Parse-level issues (emitted by the lenient readers in railway/io.hpp).
    {"L001", Severity::Error, "syntax error (malformed line, number, or clock value)"},
    {"L002", Severity::Error, "duplicate entity name"},
    {"L003", Severity::Error, "reference to an unknown entity"},
    {"L004", Severity::Error, "non-positive length or speed (zero-length edge)"},
    {"L005", Severity::Error, "station offset outside its track"},
    // Network structure.
    {"L010", Severity::Error, "isolated node (degree 0, dangling)"},
    {"L011", Severity::Error, "network is not connected (unreachable component)"},
    {"L012", Severity::Error, "track does not belong to any TTD section"},
    {"L013", Severity::Warning, "duplicate parallel edge inside one TTD section"},
    {"L014", Severity::Warning, "degree anomaly at a switch point (degree > 3)"},
    {"L015", Severity::Warning, "TTD section is not contiguous"},
    {"L016", Severity::Error, "network has no tracks"},
    // Schedule feasibility.
    {"L020", Severity::Error, "train speed rounds to zero segments per step"},
    {"L021", Severity::Error, "consecutive stops are disconnected in the segment graph"},
    {"L022", Severity::Error, "stop scheduled before the previous stop or departure"},
    {"L023", Severity::Error, "departure, arrival, or dwell beyond the scenario horizon"},
    {"L024", Severity::Error, "arrival deadline below the shortest-path lower bound"},
    {"L025", Severity::Error, "run cannot complete within the horizon (lower bound)"},
    {"L026", Severity::Error, "two trains pinned to the same segment at the same step"},
    {"L027", Severity::Error, "train has more than one run"},
    // Reachability analysis (lint/reach.hpp): fixpoint time-window facts.
    {"R001", Severity::Error, "scheduled position outside its reachability window"},
    {"R002", Severity::Error, "dead stop: dwell cannot fit inside the reachability window"},
    {"R003", Severity::Info, "vacuous deadline: later obligations already force it"},
    // CNF formula.
    {"C001", Severity::Warning, "tautological clause (contains x and not-x)"},
    {"C002", Severity::Warning, "duplicate literal inside a clause"},
    {"C003", Severity::Warning, "duplicate clause"},
    {"C004", Severity::Error, "contradictory unit clauses (trivially UNSAT)"},
    {"C005", Severity::Warning, "variable never referenced by any clause"},
    {"C006", Severity::Info, "variable occurs with a single polarity (pure literal)"},
    {"C007", Severity::Error, "empty clause (trivially UNSAT)"},
    {"C008", Severity::Error, "literal references a variable beyond the declared count"},
    {"C010", Severity::Info, "formula decomposes into independent components"},
    // Infeasibility explanations (emitted by core/explain.hpp from a
    // certified UNSAT core, not by the static linters).
    {"E101", Severity::Error, "schedule proven infeasible (certified UNSAT core summary)"},
    {"E102", Severity::Error, "schedule pin unreachable or conflicting in the core"},
    {"E103", Severity::Error, "TTD separation / headway conflict in the core"},
    {"E104", Severity::Error, "pass-through exclusivity conflict in the core"},
    {"E105", Severity::Info, "movement or occupancy envelope cited by the core"},
}};

}  // namespace

std::string_view severityName(Severity severity) noexcept {
    switch (severity) {
        case Severity::Info: return "info";
        case Severity::Warning: return "warning";
        case Severity::Error: return "error";
    }
    return "unknown";
}

std::span<const CodeInfo> knownCodes() noexcept { return kCodes; }

void LintReport::add(Diagnostic diagnostic) {
    switch (diagnostic.severity) {
        case Severity::Error: ++errors_; break;
        case Severity::Warning: ++warnings_; break;
        case Severity::Info: ++infos_; break;
    }
    diagnostics_.push_back(std::move(diagnostic));
}

std::size_t LintReport::count(Severity severity) const noexcept {
    switch (severity) {
        case Severity::Error: return errors_;
        case Severity::Warning: return warnings_;
        case Severity::Info: return infos_;
    }
    return 0;
}

std::size_t LintReport::countOf(std::string_view code) const noexcept {
    std::size_t n = 0;
    for (const Diagnostic& d : diagnostics_) {
        if (d.code == code) {
            ++n;
        }
    }
    return n;
}

void LintReport::merge(const LintReport& other) {
    for (const Diagnostic& d : other.diagnostics_) {
        add(d);
    }
}

void LintReport::write(std::ostream& os, std::string_view file) const {
    for (const Diagnostic& d : diagnostics_) {
        if (!file.empty()) {
            os << file << ':';
            if (d.line > 0) {
                os << d.line << ':';
            }
            os << ' ';
        } else if (d.line > 0) {
            os << "line " << d.line << ": ";
        }
        os << severityName(d.severity) << ' ' << d.code;
        if (!d.entity.empty()) {
            os << " [" << d.entity << ']';
        }
        os << ": " << d.message;
        if (!d.hint.empty()) {
            os << " (fix: " << d.hint << ')';
        }
        os << '\n';
    }
}

void LintReport::writeJson(std::ostream& os) const {
    os << "{\"errors\":" << errors_ << ",\"warnings\":" << warnings_
       << ",\"infos\":" << infos_ << ",\"diagnostics\":[";
    bool first = true;
    for (const Diagnostic& d : diagnostics_) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << "{\"code\":\"" << d.code << "\",\"severity\":\"" << severityName(d.severity)
           << "\",\"entity\":\"" << obs::jsonEscape(d.entity) << "\",\"message\":\""
           << obs::jsonEscape(d.message) << "\",\"hint\":\"" << obs::jsonEscape(d.hint)
           << "\",\"line\":" << d.line << '}';
    }
    os << "]}";
}

void LintReport::recordMetrics() const {
    auto& registry = obs::Registry::global();
    registry.counter("etcs.lint.errors").add(errors_);
    registry.counter("etcs.lint.warnings").add(warnings_);
    registry.counter("etcs.lint.infos").add(infos_);
}

}  // namespace etcs::lint
