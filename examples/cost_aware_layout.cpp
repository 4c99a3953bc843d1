/// \file cost_aware_layout.cpp
/// Cost-aware VSS layout generation: instead of simply minimizing the number
/// of virtual borders (paper Sec. III-C), weight each candidate border with
/// an installation cost.
///
/// On the running example the count-minimal layout splits the side track
/// through station C. Suppose that border is expensive (platform area,
/// signalling constraints): the weighted generator then finds the
/// alternative single border on the exit track, which realizes the same
/// schedule at a tenth of the cost.
#include <iostream>

#include "core/instance.hpp"
#include "core/tasks.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

int describeLayout(const core::Instance& instance, const studies::CaseStudy& study,
                   const char* label, const core::VssLayout& layout,
                   const std::function<int(SegNodeId)>& cost) {
    const auto& graph = instance.graph();
    int total = 0;
    std::cout << label << ":\n";
    for (std::size_t n = 0; n < graph.numNodes(); ++n) {
        const SegNodeId node{n};
        if (graph.node(node).fixedBorder || !layout.flags()[n]) {
            continue;
        }
        total += cost(node);
        std::cout << "  border (cost " << cost(node) << ") between";
        for (SegmentId s : graph.segmentsAt(node)) {
            std::cout << " " << graph.segmentLabel(s);
        }
        std::cout << "\n";
    }
    std::cout << "  => total cost " << total << ", " << layout.sectionCount(graph)
              << " sections\n\n";
    (void)study;
    return total;
}

}  // namespace

int main() {
    const auto study = studies::runningExample();
    const core::Instance instance(study.network, study.trains, study.timedSchedule,
                                  study.resolution);
    const auto& graph = instance.graph();

    // Cost model: a virtual border on the side track through station C
    // costs 10 (platform area); anywhere else costs 1.
    auto cost = [&](SegNodeId node) {
        for (SegmentId s : graph.segmentsAt(node)) {
            if (study.network.track(graph.segment(s).track).name == "side") {
                return 10;
            }
        }
        return 1;
    };

    std::cout << "=== Cost-aware layout generation on the running example ===\n"
              << "cost model: border on the station-C side track = 10, elsewhere = 1\n\n";

    const auto plain = core::generateLayout(instance);
    if (!plain.feasible) {
        std::cout << "schedule not realizable\n";
        return 1;
    }
    const int plainCost = describeLayout(instance, study,
                                         "count-minimal layout (plain generation)",
                                         plain.solution->layout, cost);

    const auto weighted = core::generateLayoutWeighted(instance, cost);
    if (!weighted.feasible) {
        std::cout << "weighted generation unexpectedly infeasible\n";
        return 1;
    }
    const int weightedCost = describeLayout(instance, study,
                                            "cost-minimal layout (weighted generation)",
                                            weighted.solution->layout, cost);

    // Both layouts must actually carry the schedule.
    const bool plainWorks = core::verifySchedule(instance, plain.solution->layout).feasible;
    const bool weightedWorks =
        core::verifySchedule(instance, weighted.solution->layout).feasible;
    std::cout << "both layouts verified: " << (plainWorks && weightedWorks ? "yes" : "NO")
              << "\n"
              << "cost saving from weighting: " << plainCost - weightedCost << " units\n";
    return weightedCost <= plainCost && plainWorks && weightedWorks ? 0 : 1;
}
