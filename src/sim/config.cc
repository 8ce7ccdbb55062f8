#include "sim/config.h"

#include <atomic>
#include <cstdlib>
#include <sstream>

#include "util/bits.h"
#include "util/error.h"
#include "util/format.h"

namespace tsp::sim {

namespace {

/** ~0 = no override; anything else wins over the environment. */
std::atomic<uint64_t> paranoidOverride{~0ull};

} // namespace

uint64_t
defaultParanoidEvery()
{
    uint64_t forced = paranoidOverride.load(std::memory_order_relaxed);
    if (forced != ~0ull)
        return forced;
    static const uint64_t cached = [] {
        const char *env = std::getenv("TSP_PARANOID");
        if (!env || !*env)
            return uint64_t{0};
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (end == env || *end != '\0')
            return uint64_t{0};
        return static_cast<uint64_t>(v);
    }();
    return cached;
}

void
setDefaultParanoidEvery(uint64_t every)
{
    paranoidOverride.store(every, std::memory_order_relaxed);
}

std::string
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::Msi:   return "MSI";
      case Protocol::Mesi:  return "MESI";
      case Protocol::Moesi: return "MOESI";
    }
    util::panic("unknown coherence protocol");
}

void
SimConfig::validate() const
{
    util::fatalIf(processors == 0 || processors > kMaxProcessors,
                  "processors must be in [1, " +
                      std::to_string(kMaxProcessors) +
                      "] (directory sharer-mask width)");
    util::fatalIf(contexts == 0, "need >= 1 hardware context");
    util::fatalIf(!util::isPow2(cacheBytes), "cache size must be 2^k");
    util::fatalIf(!util::isPow2(blockBytes), "block size must be 2^k");
    util::fatalIf(blockBytes < 4 || blockBytes > 4096,
                  "block size out of range");
    util::fatalIf(cacheBytes < blockBytes,
                  "cache smaller than one block");
    util::fatalIf(!util::isPow2(associativity) || associativity > 64,
                  "associativity must be a power of two <= 64");
    util::fatalIf(cacheBytes < static_cast<uint64_t>(blockBytes) *
                                   associativity,
                  "cache smaller than one set");
    util::fatalIf(hitLatency == 0, "hit latency must be >= 1 cycle");
    util::fatalIf(protocol != Protocol::Msi &&
                      protocol != Protocol::Mesi &&
                      protocol != Protocol::Moesi,
                  "unknown coherence protocol");
    if (l2Bytes > 0) {
        util::fatalIf(!util::isPow2(l2Bytes),
                      "L2 size must be 2^k bytes");
        util::fatalIf(!util::isPow2(l2Associativity) ||
                          l2Associativity > 64,
                      "L2 associativity must be a power of two <= 64");
        util::fatalIf(l2Bytes < static_cast<uint64_t>(blockBytes) *
                                    l2Associativity,
                      "L2 smaller than one set");
        util::fatalIf(l2HitLatency == 0 ||
                          l2HitLatency >= memoryLatency,
                      "L2 hit latency must be in [1, memoryLatency)");
    }
    util::fatalIf(networkLinks > 4096, "implausible link count");
    util::fatalIf(networkLinks > 0 && linkOccupancy == 0,
                  "link occupancy must be >= 1 cycle");
}

std::vector<MemSystemKnob>
memSystemKnobs()
{
    const SimConfig d;  // defaults come from the code, never the doc
    auto num = [](uint64_t v) { return std::to_string(v); };
    return {
        {"cacheBytes", num(d.cacheBytes),
         "power of two >= blockBytes"},
        {"blockBytes", num(d.blockBytes), "power of two in [4, 4096]"},
        {"associativity", num(d.associativity),
         "power of two in [1, 64]"},
        {"hitLatency", num(d.hitLatency), ">= 1 cycle"},
        {"memoryLatency", num(d.memoryLatency), ">= 1 cycle"},
        {"protocol", protocolName(d.protocol), "MSI / MESI / MOESI"},
        {"l2Bytes", num(d.l2Bytes),
         "0 (no L2) or a power of two >= blockBytes x l2Associativity"},
        {"l2Associativity", num(d.l2Associativity),
         "power of two in [1, 64]"},
        {"l2HitLatency", num(d.l2HitLatency), "[1, memoryLatency)"},
        {"networkLinks", num(d.networkLinks),
         "0 (contention-free) or [1, 4096]"},
        {"linkOccupancy", num(d.linkOccupancy), ">= 1 cycle"},
    };
}

std::string
SimConfig::describe() const
{
    std::ostringstream os;
    os << processors << " procs x " << contexts << " ctxs, "
       << util::fmtBytes(cacheBytes) << ' ';
    if (associativity == 1)
        os << "direct-mapped";
    else
        os << associativity << "-way";
    os << " (" << blockBytes << "B blocks), miss " << memoryLatency
       << "cy, switch " << contextSwitchCycles << "cy";
    if (protocol != Protocol::Mesi)
        os << ", " << protocolName(protocol);
    if (l2Bytes > 0) {
        os << ", inclusive shared L2 " << util::fmtBytes(l2Bytes) << ' '
           << l2Associativity << "-way " << l2HitLatency << "cy";
    }
    if (networkLinks > 0) {
        os << ", " << networkLinks << " queued links ("
           << linkOccupancy << "cy occupancy)";
    }
    if (paranoidEvery)
        os << ", paranoid every " << paranoidEvery << " refs";
    return os.str();
}

} // namespace tsp::sim
