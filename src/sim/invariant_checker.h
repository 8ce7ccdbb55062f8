/**
 * @file
 * Paranoid-mode coherence invariant checker.
 *
 * The simulator's caches and directory maintain redundant views of the
 * same truth (which caches hold which blocks, in which states), and
 * the statistics derive from that truth. The checker cross-validates
 * all three periodically:
 *
 *  - directory vs caches: an Owned block has exactly one sharer, and
 *    that cache holds it Exclusive or Modified (never Exclusive under
 *    MSI); a Shared block's sharer set matches exactly the caches
 *    holding it Shared; a SharedOwned block (MOESI) has its owner
 *    holding it Owned and every other sharer holding it Shared; an
 *    Uncached block has no sharers;
 *  - caches vs directory: every valid frame's block has a directory
 *    entry listing that cache as a sharer;
 *  - shared L2, when present: inclusion — every valid L1 frame's
 *    block is L2-resident;
 *  - counters: per-processor hits + misses == memory references,
 *    references <= instructions, and every counter is monotonically
 *    non-decreasing between checks (the checker keeps the previous
 *    snapshot).
 *
 * A violation throws PanicError carrying a state dump (the offending
 * block, its directory entry, and the per-cache frame states), so the
 * failure is diagnosable from the exception alone. Enabled via
 * SimConfig::paranoidEvery; when disabled the Machine pays one branch
 * per reference and never constructs a checker.
 */

#ifndef TSP_SIM_INVARIANT_CHECKER_H
#define TSP_SIM_INVARIANT_CHECKER_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/directory.h"
#include "sim/l2_cache.h"
#include "sim/results.h"

namespace tsp::sim {

/**
 * Validates coherence + accounting invariants over a Machine's state.
 * Construct once per run; check() as often as paranoia demands.
 */
class InvariantChecker
{
  public:
    /**
     * @param directory   the machine's block directory
     * @param caches      one cache per processor
     * @param stats       the machine's statistics (procs must stay
     *                    sized to the cache count for the checker's
     *                    lifetime)
     * @param l2          the shared L2, or nullptr when disabled
     *
     * The checker aliases everything passed; it all must outlive it.
     * The protocol checked is the directory's.
     */
    InvariantChecker(const Directory &directory,
                     const std::vector<Cache> &caches,
                     const SimStats &stats,
                     const SharedL2 *l2 = nullptr);

    /**
     * Validate every invariant; throws util::PanicError with a state
     * dump on the first violation. @p when labels the dump (e.g. the
     * reference count at the time of the check).
     */
    void check(uint64_t when);

    /** Number of successful check() calls so far. */
    uint64_t checksRun() const { return checksRun_; }

  private:
    /** Counter snapshot used for the monotonicity check. */
    struct ProcSnapshot
    {
        uint64_t busyCycles = 0;
        uint64_t switchCycles = 0;
        uint64_t idleCycles = 0;
        uint64_t instructions = 0;
        uint64_t memRefs = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    void checkDirectoryAgainstCaches(uint64_t when) const;
    void checkCachesAgainstDirectory(uint64_t when) const;
    void checkL2(uint64_t when) const;
    void checkCounters(uint64_t when);

    /** Render the full state of @p block across directory + caches. */
    std::string dumpBlock(uint64_t block) const;

    const Directory &directory_;
    const std::vector<Cache> &caches_;
    const SimStats &stats_;
    const SharedL2 *l2_;
    std::vector<ProcSnapshot> prev_;
    uint64_t checksRun_ = 0;
};

} // namespace tsp::sim

#endif // TSP_SIM_INVARIANT_CHECKER_H
