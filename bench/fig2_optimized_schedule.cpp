/// \file fig2_optimized_schedule.cpp
/// Regenerates Fig. 2 of the paper: the improved VSS layout and schedule for
/// the running example. Departures are kept, arrivals are released, and
/// each train's arrival is minimized in schedule order
/// (core::optimizeIndividualArrivals), which is what Fig. 2b depicts: every
/// train arrives no later than in Fig. 1b. Fig. 2a is the layout of that
/// same solution, the one the Fig. 2b schedule runs on: with every arrival
/// fixed, the per-train objective minimizes sections. (The completion
/// objective of core::optimizeSchedule finishes as early overall but may
/// delay a single train: train 3 arrives at 0:04 there against 0:03 in
/// Fig. 1b.)
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
#include "studies/studies.hpp"

using namespace etcs;

int main() {
    const auto study = studies::runningExample();
    const core::Instance timed(study.network, study.trains, study.timedSchedule,
                               study.resolution);
    const core::Instance open(study.network, study.trains, study.openSchedule,
                              study.resolution);

    const auto optimized = core::optimizeIndividualArrivals(open);
    if (!optimized.feasible) {
        std::cout << "optimization infeasible -- shape mismatch\n";
        return 1;
    }
    const auto& graph = open.graph();
    const core::Solution& solution = *optimized.solution;

    std::cout << "FIG. 2a: Improved VSS layout (" << solution.sectionCount
              << " TTD/VSS sections, " << solution.layout.virtualBorderCount(graph)
              << " virtual borders; the fewest the Fig. 2b arrivals allow)\n";
    for (std::size_t n = 0; n < graph.numNodes(); ++n) {
        if (!graph.node(SegNodeId(n)).fixedBorder && solution.layout.flags()[n]) {
            std::cout << "  virtual border between";
            for (SegmentId s : graph.segmentsAt(SegNodeId(n))) {
                std::cout << " " << graph.segmentLabel(s);
            }
            std::cout << "\n";
        }
    }

    std::cout << "\nFIG. 2b: Improved schedule\n\n"
              << std::left << std::setw(8) << "Train" << std::setw(7) << "Start"
              << std::setw(6) << "Goal" << std::setw(14) << "Speed[km/h]" << std::setw(11)
              << "Length[m]" << std::setw(11) << "Departure" << std::setw(12) << "Arrival"
              << "Original\n";
    bool allImproved = true;
    for (std::size_t r = 0; r < open.numRuns(); ++r) {
        const auto& run = open.runs()[r];
        const auto& train = study.trains.train(run.train);
        const int arrivalStep = solution.traces[r].firstArrivalStep;
        const int originalStep = *timed.runs()[r].destination().arrivalStep;
        allImproved &= arrivalStep <= originalStep;
        std::cout << std::left << std::setw(8) << train.name << std::setw(7)
                  << study.network.station(study.openSchedule.runs()[r].origin).name
                  << std::setw(6)
                  << study.network
                         .station(study.openSchedule.runs()[r].stops.back().station)
                         .name
                  << std::setw(14) << train.maxSpeed.kmPerHour() << std::setw(11)
                  << train.length.count() << std::setw(11)
                  << study.resolution.timeOf(run.departureStep).clock() << std::setw(12)
                  << study.resolution.timeOf(arrivalStep).clock()
                  << study.resolution.timeOf(originalStep).clock() << "\n";
    }

    // Every train has left by its done step, so the last one completes the
    // schedule.
    const int completionSteps =
        *std::max_element(optimized.doneSteps.begin(), optimized.doneSteps.end());
    std::cout << "\ncompletion: " << completionSteps << " time steps vs "
              << timed.horizonSteps() << " for the Fig. 1b schedule\n";
    const auto violations = core::validateSolution(open, solution);
    const bool ok =
        allImproved && completionSteps < timed.horizonSteps() && violations.empty();
    std::cout << (ok ? "shape check: OK (every train at least as early, fewer steps overall)"
                     : "shape check: MISMATCH")
              << "\n";
    return ok ? 0 : 1;
}
