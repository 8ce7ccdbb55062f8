/**
 * @file
 * Optional shared L2/LLC behind the per-processor L1s
 * (SimConfig::l2Bytes > 0). Set-associative with LRU replacement,
 * shared by all processors, and purely a latency filter: an L1 miss
 * that hits here costs l2HitLatency instead of the full memoryLatency.
 *
 * The L2 is inclusive: every L1-resident block is also here, so an L2
 * eviction back-invalidates the L1 copies (the Machine drives that
 * through the directory and Cache::backInvalidate).
 *
 * The L2 keeps no coherence state of its own (the directory already
 * tracks sharers exactly); it tracks only presence, recency, and a
 * dirty bit for writeback accounting.
 */

#ifndef TSP_SIM_L2_CACHE_H
#define TSP_SIM_L2_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace tsp::sim {

/** The shared second-level cache. */
class SharedL2
{
  public:
    /** One L2 frame. */
    struct Frame
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** Construct from the configuration; requires cfg.l2Bytes > 0. */
    explicit SharedL2(const SimConfig &cfg);

    /**
     * Look @p block up and mark it most-recently-used on a hit.
     * Returns the frame, or nullptr on a miss.
     */
    Frame *lookup(uint64_t block);

    /** Presence check without touching LRU state (tests/checker). */
    bool present(uint64_t block) const;

    /** The block an insert displaced, if any. */
    struct Victim
    {
        bool evicted = false;  //!< a valid block was displaced
        bool dirty = false;    //!< ... and its copy was dirty
        uint64_t block = 0;    //!< the displaced block
    };

    /**
     * Insert @p block (must not be present) with the given dirty
     * state, evicting the set's LRU frame when the set is full.
     */
    Victim insert(uint64_t block, bool dirty);

    /**
     * Mark @p block's copy dirty (an L1 wrote back into it). No-op
     * when the block is absent.
     */
    void markDirty(uint64_t block);

    /** Number of frames (sets x ways). */
    size_t numFrames() const { return frames_.size(); }

    /** Number of valid frames (tests/checker). */
    size_t validCount() const;

    /** Read-only frame array for the paranoid InvariantChecker. */
    const std::vector<Frame> &frames() const { return frames_; }

  private:
    size_t
    setBase(uint64_t block) const
    {
        return static_cast<size_t>((block & setMask_) * ways_);
    }

    uint64_t setMask_;
    uint32_t ways_;
    uint64_t tick_ = 0;
    std::vector<Frame> frames_;  //!< sets x ways, set-major
};

} // namespace tsp::sim

#endif // TSP_SIM_L2_CACHE_H
