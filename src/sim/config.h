/**
 * @file
 * Architectural inputs to the simulator (the paper's Table 3).
 *
 * Values stated in the paper's text and reproduced here as defaults:
 * 1-cycle cache hits, direct-mapped caches of 32/64 KB (8 MB for the
 * "infinite" cache study), a 6-cycle context switch triggered by a
 * cache miss, round-robin context scheduling, and a contention-free
 * multipath interconnect approximated by a flat 50-cycle memory
 * latency. The block size (32 bytes) is an assumption documented in
 * DESIGN.md: Table 3's body did not survive in the source text.
 */

#ifndef TSP_SIM_CONFIG_H
#define TSP_SIM_CONFIG_H

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace tsp::sim {

/**
 * Coherence protocol family. The paper's directory grants Exclusive on
 * sole read misses (MESI-style, see sim/directory.h); the knob exists
 * so the protocol itself can be a sweep axis:
 *
 *  - Msi: no Exclusive state — a sole reader gets Shared, so every
 *    first store pays an upgrade transaction even on private data;
 *  - Mesi: the default, faithful to the reproduction's seed model;
 *  - Moesi: adds the Owned state — a read miss on a Modified block
 *    leaves the dirty data in the owner's cache (M -> O, no writeback)
 *    and the owner keeps supplying it while sharers hold clean copies.
 */
enum class Protocol : uint8_t {
    Msi = 0,
    Mesi = 1,
    Moesi = 2,
};

/** Display name ("MSI", "MESI", "MOESI"). */
std::string protocolName(Protocol p);

/**
 * The process-wide default for SimConfig::paranoidEvery: the last
 * setDefaultParanoidEvery() override if any, else the TSP_PARANOID
 * environment variable parsed as a non-negative integer (0 or
 * unparsable/unset = off). The env read happens once and is cached.
 */
uint64_t defaultParanoidEvery();

/** Override defaultParanoidEvery() (CLI `--paranoid N`). */
void setDefaultParanoidEvery(uint64_t every);

/**
 * Hard processor-count cap — the single place the machine width is
 * bounded. The directory's sharer sets and the sharing monitor's
 * toucher sets are dynamic-width bit vectors (sim::SharerSet,
 * sim/sharer_set.h) that stay inline — allocation-free, pinned by
 * tests/sim_alloc_test.cc — up to SharerSet::kInlineBits = 128
 * processors and spill to a sized heap word array above that. The cap
 * is therefore a sanity bound enforced once by validate() (and the
 * constructors that take a processor count), not a storage limit:
 * raising it requires no data-structure change.
 */
inline constexpr uint32_t kMaxProcessors = 1024;

/** Complete architectural description consumed by the Machine. */
struct SimConfig
{
    /** Number of processors. At most kMaxProcessors. */
    uint32_t processors = 4;

    /** Hardware contexts per processor. */
    uint32_t contexts = 2;

    /** Data cache capacity per processor, in bytes (power of two). */
    uint64_t cacheBytes = 32 * 1024;

    /** Cache block size in bytes (power of two). */
    uint32_t blockBytes = 32;

    /**
     * Cache associativity (ways per set, power of two). The paper's
     * caches are direct-mapped (1); Section 4.1 notes that set
     * associativity would cure the thrashing it observed on Patch,
     * which the associativity ablation bench demonstrates.
     */
    uint32_t associativity = 1;

    /** Cache hit latency in cycles. */
    uint32_t hitLatency = 1;

    /** Flat interconnect/memory latency applied to every miss. */
    uint32_t memoryLatency = 50;

    /** Coherence protocol (sim/directory.h). MESI is the default. */
    Protocol protocol = Protocol::Mesi;

    /**
     * Shared L2/LLC capacity in bytes (power of two). 0 (default)
     * disables the L2 entirely — the paper's one-level hierarchy — so
     * every L1 miss pays the full memoryLatency. When enabled, the L2
     * is inclusive and L1 misses that hit it pay l2HitLatency instead
     * (see sim/l2_cache.h).
     */
    uint64_t l2Bytes = 0;

    /** Shared L2 associativity (ways per set, power of two). */
    uint32_t l2Associativity = 8;

    /** Latency of an L1 miss served by the shared L2, in cycles. */
    uint32_t l2HitLatency = 12;

    /**
     * Queued-interconnect contention model: address-interleaved links,
     * each a FIFO a transaction occupies for linkOccupancy cycles, so
     * latency grows with the queue a miss finds. 0 (default) keeps the
     * paper's contention-free flat latency (see sim/interconnect.h).
     */
    uint32_t networkLinks = 0;

    /** Link occupancy per transaction, in cycles. */
    uint32_t linkOccupancy = 6;

    /** Cycles to drain the pipeline on a context switch. */
    uint32_t contextSwitchCycles = 6;

    /**
     * Collect the write-run sharing profile (SharingMonitor) during
     * the run. Off by default: it adds a hash lookup per reference.
     */
    bool profileSharing = false;

    /**
     * Paranoid mode: run the coherence InvariantChecker every this
     * many memory references (plus once at the end of the run).
     * 0 disables it — the only cost then is one branch per reference.
     * The default comes from the TSP_PARANOID environment variable
     * (see defaultParanoidEvery); the test suite sets it so every
     * simulation in the suite is invariant-checked.
     */
    uint64_t paranoidEvery = defaultParanoidEvery();

    /** Number of cache sets. */
    uint64_t
    numSets() const
    {
        return cacheBytes / blockBytes / associativity;
    }

    /** Throw FatalError if any parameter is out of range. */
    void validate() const;

    /** One-line description for reports. */
    std::string describe() const;

    /** The 8 MB "effectively infinite" cache variant (Section 4.3). */
    SimConfig
    withInfiniteCache() const
    {
        SimConfig c = *this;
        c.cacheBytes = 8ull * 1024 * 1024;
        return c;
    }

    /** Number of L2 sets (meaningful only when l2Bytes > 0). */
    uint64_t
    numL2Sets() const
    {
        return l2Bytes / blockBytes / l2Associativity;
    }

    /**
     * Field-by-field comparison: equal configurations describe the
     * same machine, so a sweep simulates them once.
     */
    auto operator<=>(const SimConfig &) const = default;
};

/**
 * One memory-system knob of SimConfig, as documented in
 * docs/memory_system.md. The `def` and `range` strings are the
 * machine-checked contract: `tests/memsys_doc_test.cc` diffs this
 * catalog against the doc's reference table, so a knob added or a
 * default changed without its doc row fails the build's test suite.
 */
struct MemSystemKnob
{
    std::string name;   //!< SimConfig field name, e.g. "l2Bytes"
    std::string def;    //!< default value, rendered as in the doc
    std::string range;  //!< valid range, rendered as in the doc
};

/**
 * The catalog of every memory-system knob (caches, protocol,
 * interconnect) with its default and valid range. Built from a
 * default-constructed SimConfig so the defaults here can never drift
 * from the code.
 */
std::vector<MemSystemKnob> memSystemKnobs();

} // namespace tsp::sim

#endif // TSP_SIM_CONFIG_H
