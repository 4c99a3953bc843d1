/// \file explain.hpp
/// Domain-level infeasibility explanations from certified UNSAT cores.
///
/// Pipeline (see docs/EXPLAIN.md):
///  1. Encode the instance with clause provenance tracking (provenance.hpp)
///     into a collected formula.
///  2. Solve with DRAT logging; on UNSAT, certify the refutation with the
///     independent checker (drat_check.hpp) and extract the original-clause
///     core.
///  3. Attribute every core clause to its provenance record and aggregate
///     the records into constraint groups (family, trains, TTD, segment)
///     with step ranges.
///  4. Optionally shrink the group set to a minimal explanation by
///     deletion-based probing with selector literals on a warm incremental
///     solver (a group MUS over provenance spans).
///  5. Render the surviving groups as human-readable diagnostics (E101-E105,
///     catalogued in lint/diagnostics.hpp) plus machine-readable JSON.
///
/// The cited (train, section, step) entries are, by construction, a subset
/// of the certified core's provenance records: shrinking only ever removes
/// groups, and step ranges come from the phase-3 core spans.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/provenance.hpp"
#include "lint/diagnostics.hpp"
#include "sat/dimacs.hpp"
#include "sat/proof.hpp"
#include "sat/types.hpp"

namespace etcs::core {

struct ExplainOptions {
    /// Shrink the core groups to a minimal explanation (deletion-based
    /// probing over selector assumptions). Off: report every core group.
    bool shrinkCore = true;
    /// Conflict budget per shrink probe; a probe that exhausts it keeps the
    /// group (sound — only removals need proof).
    std::int64_t shrinkConflictBudget = 20000;
    /// Encoding options; trackProvenance is forced on by the engine.
    EncoderOptions encoder;
};

/// One cited constraint group of the explanation, with resolved entity
/// names in `message`. Steps are a closed range [stepFirst, stepLast]
/// aggregated over the group's core spans (-1/-1: step-independent).
struct ExplainEntry {
    std::string code;  ///< E101..E105, see lint::knownCodes()
    lint::Severity severity = lint::Severity::Error;
    std::string family;
    int run = -1;
    int run2 = -1;
    int ttd = -1;
    int segment = -1;
    int stepFirst = -1;
    int stepLast = -1;
    std::string message;
};

/// Everything explainInfeasibility() learned about one instance.
struct ExplainResult {
    bool feasible = false;   ///< solver found a model; no explanation needed
    bool unsat = false;      ///< solver proved UNSAT
    bool certified = false;  ///< DRAT checker verified the refutation
    std::string error;       ///< non-empty when the pipeline stopped early

    std::size_t coreClauses = 0;         ///< original clauses in the certified core
    std::size_t taggedCoreClauses = 0;   ///< of those, clauses with provenance
    std::size_t untaggedCoreClauses = 0; ///< structural/auxiliary core clauses
    std::size_t coreGroups = 0;          ///< constraint groups before shrinking
    std::size_t citedGroups = 0;         ///< groups cited after shrinking
    std::size_t shrinkSolves = 0;        ///< incremental probes spent shrinking

    /// Cited groups, sorted by (code, family, run, run2, ttd, segment,
    /// stepFirst) for deterministic output. Empty when feasible.
    std::vector<ExplainEntry> entries;
    /// Provenance records of the certified core's tagged clauses, one per
    /// core span (steps included), deduplicated and sorted. The entries
    /// above cite a subset of these.
    std::vector<ClauseProvenance> coreRecords;

    /// The encoded formula and the recorded proof, kept so callers can
    /// re-certify externally (`etcs_cli explain --cnf/--proof`).
    sat::CnfFormula formula;
    sat::DratProof proof;
};

/// Run the full explanation pipeline on an instance. Pass a layout to pin
/// the VSS borders (verification task); nullptr leaves them free. Never
/// throws on infeasible inputs — inspect `error` for pipeline failures.
[[nodiscard]] ExplainResult explainInfeasibility(const Instance& instance,
                                                 const VssLayout* fixedLayout,
                                                 const ExplainOptions& options = {});

/// Human-readable report, one line per entry.
void writeExplanationText(std::ostream& os, const ExplainResult& result);

/// Deterministic machine-readable report (stable member order, no timings).
void writeExplanationJson(std::ostream& os, const ExplainResult& result);

}  // namespace etcs::core
