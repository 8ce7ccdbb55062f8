#include "experiment/configs.h"

#include <sstream>

#include "util/bits.h"
#include "util/error.h"

namespace tsp::experiment {

std::string
MachinePoint::label() const
{
    std::ostringstream os;
    os << processors << "p x " << contexts << 'c';
    return os.str();
}

std::vector<MachinePoint>
standardSweep(uint32_t threads)
{
    std::vector<MachinePoint> points;
    for (uint32_t p : {2u, 4u, 8u, 16u}) {
        if (p > threads)
            break;
        uint32_t contexts = static_cast<uint32_t>(
            util::divCeil(threads, p));
        points.push_back({p, contexts});
    }
    return points;
}

std::vector<MemSystem>
allMemSystems()
{
    return {MemSystem::Flat1994, MemSystem::SharedL2, MemSystem::Moesi,
            MemSystem::Contended};
}

std::string
memSystemName(MemSystem ms)
{
    switch (ms) {
      case MemSystem::Flat1994:  return "flat-1994";
      case MemSystem::SharedL2:  return "shared-l2";
      case MemSystem::Moesi:     return "moesi";
      case MemSystem::Contended: return "contended";
    }
    util::panic("unknown memory system variant");
}

void
applyMemSystem(sim::SimConfig &cfg, MemSystem ms)
{
    if (ms == MemSystem::Flat1994)
        return;  // the seed model, untouched
    // Cumulative: every non-flat variant carries the shared L2 (4x
    // the L1, a power of two because cacheBytes is one).
    cfg.l2Bytes = 4 * cfg.cacheBytes;
    cfg.l2Associativity = 8;
    cfg.l2HitLatency = 12;
    if (ms == MemSystem::SharedL2)
        return;
    cfg.protocol = sim::Protocol::Moesi;
    if (ms == MemSystem::Moesi)
        return;
    util::panicIf(ms != MemSystem::Contended,
                  "unknown memory system variant");
    cfg.networkLinks = cfg.processors;
    cfg.linkOccupancy = 6;
}

} // namespace tsp::experiment
