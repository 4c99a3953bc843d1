#include "core/pruning.hpp"

#include "obs/metrics.hpp"

namespace etcs::core {

PruneTable::PruneTable(const Instance& instance)
    : analysis_(instance.graph(), instance.runs(), instance.horizonSteps()) {}

void PruneTable::recordMetrics() const {
    auto& registry = obs::Registry::global();
    registry.counter("etcs.reach.runs").add(analysis_.numRuns());
    registry.counter("etcs.reach.iterations").add(analysis_.iterations());
    registry.counter("etcs.reach.violations").add(analysis_.violations().size());
    registry.counter("etcs.reach.cells.possible").add(analysis_.possibleCells());
    registry.counter("etcs.reach.cells.total").add(analysis_.totalCells());
    std::uint64_t promptRuns = 0;
    for (std::size_t run = 0; run < analysis_.numRuns(); ++run) {
        if (analysis_.promptCutoff(run)) {
            ++promptRuns;
        }
    }
    registry.counter("etcs.reach.prompt_cutoff_runs").add(promptRuns);
}

}  // namespace etcs::core
