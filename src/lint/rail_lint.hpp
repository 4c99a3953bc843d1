/// \file rail_lint.hpp
/// Instance linter: structural checks over railway networks and feasibility
/// lower bounds over schedules, run before any encoding (diagnostic codes
/// L0xx/L1xx/L2xx, see docs/LINTING.md).
///
/// The schedule checks are *sound* with respect to the SAT encoding: every
/// Error-severity schedule diagnostic (L020..L027) proves the encoded
/// instance unsatisfiable, so tasks can fail fast without invoking the
/// solver. The key check is the per-train shortest-path lower bound (L024):
/// a train moving at most speedSegments per step cannot occupy a stop
/// segment earlier than its cumulative graph distance allows. Steps,
/// segments and that bound come from railway/discretize.hpp, the same
/// mapping core::Instance and the encoder use, so a lint verdict speaks
/// about the formula the solver would see.
#pragma once

#include <istream>

#include "lint/diagnostics.hpp"
#include "railway/io.hpp"
#include "railway/network.hpp"
#include "railway/schedule.hpp"
#include "railway/segment_graph.hpp"
#include "railway/train.hpp"
#include "util/units.hpp"

namespace etcs::lint {

/// Structural network checks (L010..L016). The network may be unvalidated
/// (e.g. produced by the lenient reader); an error-free report implies
/// Network::validate() would succeed.
void lintNetwork(const rail::Network& network, LintReport& report);

/// Schedule feasibility checks (L020..L027) on an already-discretized graph.
void lintSchedule(const rail::SegmentGraph& graph, const rail::TrainSet& trains,
                  const rail::Schedule& schedule, LintReport& report);

/// Convenience: lintNetwork, then (when the network has no structural
/// errors) discretize at `resolution` and lintSchedule.
void lintScenario(const rail::Network& network, const rail::TrainSet& trains,
                  const rail::Schedule& schedule, Resolution resolution, LintReport& report);

/// Lenient file linting (L001..L005 during parsing): every parse problem
/// becomes a diagnostic with its source line; the returned objects may be
/// partial when the report carries errors.
[[nodiscard]] rail::Network lintNetworkFile(std::istream& in, LintReport& report);
[[nodiscard]] rail::Scenario lintScenarioFile(std::istream& in, const rail::Network& network,
                                              LintReport& report);

}  // namespace etcs::lint
