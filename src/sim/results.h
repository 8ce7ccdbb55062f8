/**
 * @file
 * Simulation statistics: per-processor cycle and miss accounting plus
 * the machine-wide coherence, interconnect and L2 counters. The
 * per-thread-pair split of the coherence traffic (Section 4.2) is not
 * a statistic of every run: only the coherence probe asks for it, as
 * a sink handed to sim::simulate (sim/machine.h).
 */

#ifndef TSP_SIM_RESULTS_H
#define TSP_SIM_RESULTS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sharing_monitor.h"

namespace tsp::sim {

/**
 * Cache miss taxonomy of the paper (Section 3.2): the cache unit keeps
 * separate statistics on compulsory, intra-thread conflict,
 * inter-thread conflict and invalidation misses.
 */
enum class MissKind : uint8_t {
    Compulsory = 0,    //!< block never before present in this cache
    IntraConflict = 1, //!< evicted earlier by the same thread
    InterConflict = 2, //!< evicted earlier by a co-located thread
    Invalidation = 3,  //!< invalidated earlier by remote coherence
};

/** Number of miss kinds. */
constexpr size_t numMissKinds = 4;

/** Display name of a miss kind. */
std::string missKindName(MissKind kind);

/**
 * Per-processor counters. The cycle identity
 * busy + switch + idle == finishTime holds for every processor that
 * executed at least one instruction.
 */
struct ProcessorStats
{
    uint64_t busyCycles = 0;    //!< cycles retiring instructions
    uint64_t switchCycles = 0;  //!< cycles draining on context switches
    uint64_t idleCycles = 0;    //!< cycles with no ready context
    uint64_t finishTime = 0;    //!< cycle the last thread completed

    /**
     * Per-context cycles spent blocked at barriers (summed over this
     * processor's contexts). An overlay statistic: barrier waits
     * overlap other contexts' execution, so this does not enter the
     * busy+switch+idle == finishTime identity.
     */
    uint64_t barrierCycles = 0;

    uint64_t instructions = 0;
    uint64_t memRefs = 0;
    uint64_t hits = 0;
    std::array<uint64_t, numMissKinds> misses{};

    uint64_t upgrades = 0;             //!< write hits needing invalidation
    uint64_t invalidationsSent = 0;    //!< invalidation messages caused
    uint64_t invalidationsReceived = 0;
    uint64_t writebacks = 0;           //!< dirty evictions / downgrades

    /** Total misses across all kinds. */
    uint64_t totalMisses() const;

    /** Miss count of one kind. */
    uint64_t
    missCount(MissKind kind) const
    {
        return misses[static_cast<size_t>(kind)];
    }
};

/**
 * Full result of one simulation run.
 */
struct SimStats
{
    std::vector<ProcessorStats> procs;

    /** Compulsory misses whose block was first touched remotely. */
    uint64_t sharingCompulsoryMisses = 0;

    /** Write-run profile; populated when SimConfig::profileSharing. */
    SharingProfile sharingProfile;
    bool profiledSharing = false;

    /** Interconnect contention (zero under the paper's default). */
    uint64_t networkTransactions = 0;
    uint64_t networkQueueingCycles = 0;
    uint64_t networkMaxQueueing = 0;

    /** Shared L2 traffic (all zero when SimConfig::l2Bytes == 0). */
    uint64_t l2Hits = 0;    //!< L1 misses served by the shared L2
    uint64_t l2Misses = 0;  //!< L1 misses that also missed the L2
    uint64_t l2Writebacks = 0;  //!< dirty L2 lines flushed to memory
    uint64_t l2BackInvalidations = 0;  //!< L1 copies removed because
                                       //!< the inclusive L2 evicted
                                       //!< their block

    /** The paper's figure of merit: max finish time over processors. */
    uint64_t executionTime() const;

    /** Aggregate over processors. */
    uint64_t totalInstructions() const;
    uint64_t totalMemRefs() const;
    uint64_t totalHits() const;
    uint64_t totalMisses() const;
    uint64_t totalMissCount(MissKind kind) const;
    uint64_t totalInvalidationsSent() const;
    uint64_t totalUpgrades() const;

    /**
     * The paper's "coherence traffic + compulsory misses" measure
     * (Table 4): invalidations sent + invalidation misses +
     * sharing-related compulsory misses.
     */
    uint64_t dynamicSharingTraffic() const;

    /** Overall miss rate (misses / references). */
    double missRate() const;
};

} // namespace tsp::sim

#endif // TSP_SIM_RESULTS_H
