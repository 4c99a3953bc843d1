/// \file tradeoff_curve.cpp
/// Extension figure (ours): the borders-vs-completion trade-off curve --
/// for every budget of k virtual borders, the fastest schedule any layout
/// within budget allows. This quantifies, border by border, the potential
/// that ETCS Level 3 unlocks (the paper's central motivation).
#include <iomanip>
#include <iostream>

#include "core/tasks.hpp"
#include "studies/studies.hpp"

using namespace etcs;

namespace {

bool printCurve(const studies::CaseStudy& study, int maxBudget) {
    const core::Instance open(study.network, study.trains, study.openSchedule,
                              study.resolution);
    std::cout << study.name << " (horizon " << open.horizonSteps() << " steps):\n\n"
              << std::right << std::setw(14) << "extra borders" << std::setw(10) << "feasible"
              << std::setw(12) << "completion" << std::setw(10) << "sections" << "\n";
    const auto curve = core::tradeoffCurve(open, maxBudget).points;
    bool monotone = true;
    int previous = -1;
    for (const auto& point : curve) {
        std::cout << std::setw(14) << point.extraBorders << std::setw(10)
                  << (point.feasible ? "yes" : "no");
        if (point.feasible) {
            std::cout << std::setw(12) << point.completionSteps << std::setw(10)
                      << point.sectionCount;
            if (previous >= 0 && point.completionSteps > previous) {
                monotone = false;
            }
            previous = point.completionSteps;
        } else {
            std::cout << std::setw(12) << "-" << std::setw(10) << "-";
        }
        std::cout << "\n";
    }
    std::cout << "\n";
    return monotone && !curve.empty() && curve.back().feasible;
}

}  // namespace

int main() {
    std::cout << "TRADE-OFF CURVES: what each additional virtual border buys\n\n";
    bool ok = true;
    ok &= printCurve(studies::runningExample(), 7);
    ok &= printCurve(studies::simpleLayout(), 6);
    std::cout << (ok ? "shape check: OK (curves non-increasing, final budget feasible)"
                     : "shape check: MISMATCH")
              << "\n";
    return ok ? 0 : 1;
}
