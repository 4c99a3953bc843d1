/// \file gen_fuzz_test.cpp
/// Differential fuzz battery over the scenario generator (src/gen/): 200+
/// generated scenarios per run, each cross-checked between independent
/// implementations of the same semantics:
///
///   * solver vs. construction: feasible-kind scenarios must be SAT on the
///     finest layout, infeasible-kind scenarios must be UNSAT;
///   * solver vs. linter: any error-severity lint finding is a soundness
///     claim (the instance is provably UNSAT) — the claim is certified by an
///     independently checked DRAT refutation;
///   * solver vs. simulator: a completed greedy simulation converts into a
///     core::Solution that must pass the solution validator (the oracle of
///     gen/oracle.hpp), and the solver's own SAT witnesses must too;
///   * solver vs. acceptance checker: every SAT witness of the reference
///     verification must also pass sim::checkTimeline (sim/check.hpp), which
///     shares no code with the encoder or the validator;
///   * backend vs. backend: internal and (when built in) Z3 must agree on
///     every verdict;
///   * pruned vs. unpruned: the reachability-pruned encoding (the default;
///     certifyUnsat also DRAT-checks its refutations) must agree with the
///     full encoding on every verdict, and both witnesses must validate.
///
/// Reproduce a failure with ETCS_TEST_SEED=N or --seed=N (see
/// support/test_seed.hpp); the per-scenario SCOPED_TRACE names the instance.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cnf/backend.hpp"
#include "cnf/collect.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "gen/generator.hpp"
#include "gen/oracle.hpp"
#include "lint/rail_lint.hpp"
#include "sat/drat_check.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "support/oracle_view.hpp"
#include "support/test_seed.hpp"

namespace {

using etcs::gen::Family;
using etcs::gen::GenParams;
using etcs::gen::ScheduleKind;

/// 6 families x 3 kinds x kRoundsPerCombination scenarios per run.
constexpr int kRoundsPerCombination = 12;

/// Encode the verification instance (finest layout) and certify its
/// unsatisfiability with the solver's DRAT proof and the independent
/// checker.
void certifyUnsat(const etcs::core::Instance& instance) {
    etcs::cnf::CollectingBackend collector;
    etcs::core::Encoder encoder(collector, instance);
    const auto finest = etcs::core::VssLayout::finest(instance.graph());
    encoder.encode(&finest);
    const etcs::sat::CnfFormula formula = collector.takeFormula();

    etcs::sat::MemoryProofWriter proofWriter;
    etcs::sat::Solver solver;
    solver.setProofWriter(&proofWriter);
    for (int v = 0; v < formula.numVariables; ++v) {
        solver.addVariable();
    }
    for (const auto& clause : formula.clauses) {
        solver.addClause(clause);
    }
    ASSERT_EQ(solver.solve(), etcs::sat::SolveStatus::Unsat);
    const auto check = etcs::sat::checkDrat(formula, proofWriter.takeProof());
    EXPECT_TRUE(check.verified) << check.error;
}

TEST(GenFuzz, DifferentialBattery) {
    const unsigned baseSeed = etcs::test::effectiveSeed(20260809U);
    SCOPED_TRACE(etcs::test::seedTrace(baseSeed));

    int scenarios = 0;
    for (int round = 0; round < kRoundsPerCombination; ++round) {
        for (Family family : etcs::gen::allFamilies()) {
            for (ScheduleKind kind : etcs::gen::allScheduleKinds()) {
                GenParams params;
                params.family = family;
                params.schedule = kind;
                params.size = 1 + round % 3;
                params.trains = 1 + round % 3;
                params.seed = static_cast<std::uint64_t>(baseSeed) * 1000003ULL +
                              static_cast<std::uint64_t>(scenarios);
                const auto scenario = etcs::gen::generate(params);
                SCOPED_TRACE(scenario.name);
                ++scenarios;

                const etcs::core::Instance instance(scenario.network, scenario.trains,
                                                    scenario.schedule,
                                                    params.resolution);
                const auto finest = etcs::core::VssLayout::finest(instance.graph());

                // Reference verdict: the internal backend, lint disabled so
                // the solver itself is exercised on every instance.
                etcs::core::TaskOptions internal;
                internal.lintInstance = false;
                const auto verdict =
                    etcs::core::verifySchedule(instance, finest, internal);

                // Construction guarantees.
                if (kind == ScheduleKind::Feasible) {
                    EXPECT_TRUE(verdict.feasible)
                        << "feasible-by-construction scenario is UNSAT";
                }
                if (kind == ScheduleKind::Infeasible) {
                    EXPECT_FALSE(verdict.feasible)
                        << "provably infeasible scenario is SAT";
                }

                // Solver SAT witnesses satisfy the validator and the
                // independent acceptance checker.
                if (verdict.feasible) {
                    ASSERT_TRUE(verdict.solution.has_value());
                    EXPECT_TRUE(
                        etcs::core::validateSolution(instance, *verdict.solution)
                            .empty());
                    EXPECT_TRUE(
                        etcs::test::checkWithOracle(instance, *verdict.solution).empty())
                        << "SAT witness fails sim::checkTimeline";
                }

                // Reachability pruning soundness: the unpruned encoding
                // (the reference verdict above uses the default, pruned
                // one) must agree on every verdict, and its witnesses must
                // validate too.
                etcs::core::TaskOptions unpruned;
                unpruned.lintInstance = false;
                unpruned.encoder.pruneUnreachable = false;
                const auto fullVerdict =
                    etcs::core::verifySchedule(instance, finest, unpruned);
                EXPECT_EQ(fullVerdict.feasible, verdict.feasible)
                    << "pruned and unpruned encodings disagree";
                if (fullVerdict.feasible) {
                    ASSERT_TRUE(fullVerdict.solution.has_value());
                    EXPECT_TRUE(
                        etcs::core::validateSolution(instance, *fullVerdict.solution)
                            .empty());
                }

                // Linter soundness: an error-severity finding claims UNSAT;
                // certify the claim with an independently checked proof.
                etcs::lint::LintReport lintReport;
                etcs::lint::lintScenario(scenario.network, scenario.trains,
                                         scenario.schedule, params.resolution,
                                         lintReport);
                if (lintReport.hasErrors()) {
                    EXPECT_FALSE(verdict.feasible)
                        << "lint proved UNSAT but the solver found a model";
                    certifyUnsat(instance);
                }
                if (kind == ScheduleKind::Infeasible) {
                    EXPECT_TRUE(lintReport.has("L024"))
                        << "infeasible-kind deadline should trip the L024 bound";
                }

                // Simulator oracle. Only the feasible kind pins deadlines at
                // the simulated arrivals; tight/infeasible distort a deadline
                // below them, so there the completed simulation is no longer
                // a witness for the instance (and its horizon may clip the
                // traces).
                if (kind == ScheduleKind::Feasible) {
                    const auto sim = etcs::gen::simulate(instance, finest);
                    EXPECT_TRUE(sim.completed)
                        << "sampling simulation must replay on the same layout";
                    if (sim.completed) {
                        const auto witness =
                            etcs::gen::solutionFromSimulation(instance, finest, sim);
                        EXPECT_TRUE(
                            etcs::core::validateSolution(instance, witness).empty())
                            << "completed simulation fails the solution validator";
                        EXPECT_TRUE(verdict.feasible)
                            << "simulation found a witness but the solver says UNSAT";
                    }
                }

#ifdef ETCS_HAVE_Z3
                // Backend agreement.
                etcs::core::TaskOptions z3Options;
                z3Options.lintInstance = false;
                z3Options.backendFactory = [] { return etcs::cnf::makeZ3Backend(); };
                EXPECT_EQ(
                    etcs::core::verifySchedule(instance, finest, z3Options).feasible,
                          verdict.feasible)
                    << "Z3 backend disagrees";
#endif
            }
        }
    }
    EXPECT_GE(scenarios, 200);
}

}  // namespace
