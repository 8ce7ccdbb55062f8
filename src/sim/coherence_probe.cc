#include "sim/coherence_probe.h"

#include <numeric>

#include "core/placement_map.h"
#include "sim/machine.h"
#include "util/error.h"

namespace tsp::sim {

CoherenceProbeResult
measureCoherenceTraffic(const trace::TraceSet &traces,
                        const SimConfig &base)
{
    const size_t t = traces.threadCount();
    util::fatalIf(t == 0, "empty trace set");
    util::fatalIf(t > kMaxProcessors,
                  "coherence probe thread count exceeds "
                  "sim::kMaxProcessors");

    SimConfig cfg = base;
    cfg.processors = static_cast<uint32_t>(t);
    cfg.contexts = 1;
    cfg.validate();

    std::vector<uint32_t> identity(t);
    std::iota(identity.begin(), identity.end(), 0u);
    placement::PlacementMap placement(cfg.processors,
                                      std::move(identity));

    CoherenceProbeResult result{stats::PairMatrix(t), {}};
    result.stats = simulate(cfg, traces, placement, &result.pairs);
    return result;
}

} // namespace tsp::sim
