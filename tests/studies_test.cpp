// Integration tests: the four case studies reproduce the qualitative shape
// of the paper's Table I.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "studies/studies.hpp"

namespace etcs::core {
namespace {

struct TableShape {
    int pureSections;          // TTD count expected in the "TTD/VSS" column
    bool expectVerifyFeasible; // Table I "Sat." for the verification row
};

void expectTableShape(const studies::CaseStudy& study, const TableShape& shape) {
    SCOPED_TRACE(study.name);
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const VssLayout pure(timed.graph());
    EXPECT_EQ(pure.sectionCount(timed.graph()), shape.pureSections);

    // Verification on the pure TTD layout.
    const auto verification = verifySchedule(timed, pure);
    EXPECT_EQ(verification.feasible, shape.expectVerifyFeasible);

    // Generation: must be feasible with at least as many sections, and only
    // a few more (the paper adds 1-4 virtual sections per study).
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    EXPECT_GE(generation.sectionCount, shape.pureSections);
    EXPECT_LE(generation.sectionCount, shape.pureSections + 4);
    ASSERT_TRUE(generation.solution.has_value());
    EXPECT_TRUE(validateSolution(timed, *generation.solution).empty());

    // Optimization: completes strictly within the scenario horizon.
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    const auto optimization = optimizeSchedule(open);
    ASSERT_TRUE(optimization.feasible);
    EXPECT_LT(optimization.completionSteps, open.horizonSteps());
    ASSERT_TRUE(optimization.solution.has_value());
    EXPECT_TRUE(validateSolution(open, *optimization.solution).empty());
}

TEST(Studies, RunningExampleMatchesTableI) {
    expectTableShape(studies::runningExample(), {4, false});
}

TEST(Studies, SimpleLayoutMatchesTableI) {
    expectTableShape(studies::simpleLayout(), {10, false});
}

TEST(Studies, ComplexLayoutMatchesTableI) {
    expectTableShape(studies::complexLayout(), {22, false});
}

TEST(Studies, NordlandsbanenMatchesTableI) {
    expectTableShape(studies::nordlandsbanen(), {51, false});
}

TEST(Studies, RunningExampleGenerationNeedsExactlyOneExtraSection) {
    const auto study = studies::runningExample();
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    const auto generation = generateLayout(timed);
    ASSERT_TRUE(generation.feasible);
    EXPECT_EQ(generation.sectionCount, 5);  // Table I: 5
}

TEST(Studies, RunningExampleOptimizationImprovesArrivals) {
    // Fig. 2b: under the optimized layout, trains arrive strictly earlier
    // than the original schedule requires.
    const auto study = studies::runningExample();
    const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
    const auto optimization = optimizeSchedule(open);
    ASSERT_TRUE(optimization.feasible);
    const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
    int originalLatest = 0;
    for (const auto& run : timed.runs()) {
        originalLatest = std::max(originalLatest, *run.destination().arrivalStep);
    }
    EXPECT_LT(optimization.completionSteps - 1, originalLatest);
}

/// Table I answers and the solve-call budget of border minimization. The
/// objective literals start false (cnf::addFalseFirstLiteral), so each
/// minimization opens near its optimum: generation takes 6/5/7/4 calls and
/// optimization 9/14/8/14. The budgets allow about twice that and stay below
/// the counts of positive-first objective literals (generation
/// 9/41/106/146, optimization 13/44/109/151), which replay the previous model
/// and lower the border count by one per call.
TEST(Studies, TableISolveCallBudget) {
    struct Row {
        studies::CaseStudy (*make)();
        int generateSections;
        int optimizeSteps;
        int optimizeSections;
        std::uint64_t generateBudget;
        std::uint64_t optimizeBudget;
    };
    const Row rows[] = {
        {studies::runningExample, 5, 9, 5, 8, 12},
        {studies::simpleLayout, 12, 17, 11, 12, 20},
        {studies::complexLayout, 23, 15, 22, 12, 20},
        {studies::nordlandsbanen, 52, 41, 52, 12, 20},
    };
    for (const Row& row : rows) {
        const auto study = row.make();
        SCOPED_TRACE(study.name);
        const Instance timed(study.network, study.trains, study.timedSchedule, study.resolution);
        const auto generation = generateLayout(timed);
        ASSERT_TRUE(generation.feasible);
        EXPECT_EQ(generation.sectionCount, row.generateSections);
        EXPECT_LE(generation.stats.solveCalls, row.generateBudget);

        const Instance open(study.network, study.trains, study.openSchedule, study.resolution);
        const auto optimization = optimizeSchedule(open);
        ASSERT_TRUE(optimization.feasible);
        EXPECT_EQ(optimization.completionSteps, row.optimizeSteps);
        EXPECT_EQ(optimization.sectionCount, row.optimizeSections);
        EXPECT_LE(optimization.stats.solveCalls, row.optimizeBudget);
    }
}

TEST(Studies, NordlandsbanenHas58StationsAnd822Km) {
    const auto study = studies::nordlandsbanen();
    int numberedHalts = 0;
    for (const auto& station : study.network.stations()) {
        if (station.name.rfind("St", 0) == 0) {
            ++numberedHalts;
        }
    }
    EXPECT_EQ(numberedHalts, 58);
    EXPECT_EQ(study.network.totalLength().count(), 822000 + 10 * 10000);  // + loop tracks
    EXPECT_EQ(study.network.numTtds(), 51u);
}

TEST(Studies, HorizonsMatchThePaper) {
    const auto running = studies::runningExample();
    EXPECT_EQ(Instance(running.network, running.trains, running.timedSchedule,
                       running.resolution)
                  .horizonSteps(),
              11);
    const auto nordland = studies::nordlandsbanen();
    EXPECT_EQ(Instance(nordland.network, nordland.trains, nordland.timedSchedule,
                       nordland.resolution)
                  .horizonSteps(),
              48);  // Table I: 48 time steps
}

TEST(Studies, CorridorGeneratorProducesValidScenarios) {
    for (int stations : {2, 3, 4}) {
        const auto study = studies::corridor(stations, 3, Meters::fromKilometers(2.0),
                                             Resolution{Meters(500), Seconds(60)});
        SCOPED_TRACE(study.name);
        EXPECT_NO_THROW(study.network.validate());
        EXPECT_EQ(study.network.numTtds(), static_cast<std::size_t>(3 * stations - 1));
        const Instance timed(study.network, study.trains, study.timedSchedule,
                             study.resolution);
        const auto generation = generateLayout(timed);
        EXPECT_TRUE(generation.feasible);
        if (generation.solution) {
            EXPECT_TRUE(validateSolution(timed, *generation.solution).empty());
        }
    }
}

}  // namespace
}  // namespace etcs::core
