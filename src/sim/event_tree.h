/**
 * @file
 * Event selection for sim::Machine: a loser (tournament) tree over the
 * processors' next-event times, so each event chain costs O(log P)
 * instead of an O(P) argmin scan (docs/performance.md).
 *
 * Keys. Every leaf holds one uint64_t, `time << kLeafBits | leaf`, so
 * comparing keys compares (time, leaf): a match is one std::min /
 * std::max pair with no branch, and ties go to the lower leaf, i.e.
 * the lower processor id. The no-event time kNoEvent (~0) packs to
 * the largest time field, kTimeLimit = 2^54 - 1, so real times must
 * stay below it. Leaves are padded to a power of two; a padding leaf
 * carries the no-event time and an index >= P, so it loses every tie
 * to a real processor.
 *
 * Layout. With L leaves, node 0 holds the overall winner and node
 * i in [1, L) the loser of the match played there (its children are
 * 2i and 2i + 1, and leaf j sits below node (L + j) / 2). The nodes
 * are written on every chain, so they start on a cache line of their
 * own and no other object shares their lines: a parallel sweep runs
 * one machine per thread, and small heap chunks move between threads
 * when one thread frees what another allocated. Sharing a line with
 * another thread's data made 8-processor cells 1.4x slower in a
 * 4-job sweep.
 *
 * Use per chain:
 *  - winner() / winnerTime(): O(1), read from node 0;
 *  - horizon(): the runner-up's time. The runner-up lost only to the
 *    winner, so it is the least loser on the winner's leaf-to-root
 *    path; the walk only reads;
 *  - replayWinner(): when the chain ends, re-play the winner's leaf
 *    once with its new time (a yield time, or kNoEvent);
 *  - rebuild(): O(L) bottom-up, when several times changed at once
 *    (a barrier release) and before the first chain.
 */

#ifndef TSP_SIM_EVENT_TREE_H
#define TSP_SIM_EVENT_TREE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.h"
#include "util/error.h"

namespace tsp::sim {

/** Loser tree over per-processor next-event times. */
class EventTree
{
  public:
    /** Low key bits that hold the leaf index. */
    static constexpr unsigned kLeafBits = 10;
    static_assert((1u << kLeafBits) >= kMaxProcessors,
                  "a key's leaf field must index every processor");

    /** Time of a processor with no outstanding event. */
    static constexpr uint64_t kNoEvent = ~0ull;

    /** Every real event time must be below this (the packed kNoEvent). */
    static constexpr uint64_t kTimeLimit = kNoEvent >> kLeafBits;

    /** A tree over @p processors leaves, every one without an event. */
    explicit EventTree(uint32_t processors)
        : width_(std::bit_ceil(std::max(processors, 1u))),
          storage_((width_ + kLineWords - 1) / kLineWords * kLineWords +
                   kLineWords),
          winners_(2 * static_cast<size_t>(width_))
    {
        util::panicIf(processors > (1u << kLeafBits),
                      "event tree leaf index overflows its key field");
        // The spare line in storage_ leaves room to start on a line.
        const size_t misaligned =
            reinterpret_cast<uintptr_t>(storage_.data()) % kLineBytes /
            sizeof(uint64_t);
        first_ = (kLineWords - misaligned) % kLineWords;
        rebuild({});
    }

    /**
     * Re-seed every leaf from @p times (leaf j gets times[j], leaves
     * past its end get kNoEvent) and replay every match bottom-up.
     * Allocation-free: the scratch array is sized at construction.
     */
    void
    rebuild(std::span<const uint64_t> times)
    {
        util::panicIf(times.size() > width_,
                      "more event times than tree leaves");
        uint64_t *nodes = storage_.data() + first_;
        for (uint32_t j = 0; j < width_; ++j)
            winners_[width_ + j] =
                pack(j < times.size() ? times[j] : kNoEvent, j);
        for (uint32_t node = width_ - 1; node != 0; --node) {
            const uint64_t a = winners_[2 * node];
            const uint64_t b = winners_[2 * node + 1];
            nodes[node] = std::max(a, b);
            winners_[node] = std::min(a, b);
        }
        nodes[0] = winners_[1];
    }

    /** Leaf of the earliest event (lowest leaf among equal times). */
    uint32_t
    winner() const
    {
        return static_cast<uint32_t>(storage_[first_] & kLeafMask);
    }

    /** The earliest event time; kNoEvent when no leaf has an event. */
    uint64_t winnerTime() const { return unpack(storage_[first_]); }

    /**
     * The least event time among all leaves but the winner's (by value:
     * it may equal winnerTime()); kNoEvent when there is none.
     */
    uint64_t
    horizon() const
    {
        const uint64_t *nodes = storage_.data() + first_;
        uint64_t key = kNoEvent;
        for (uint32_t node = (width_ + winner()) >> 1; node != 0;
             node >>= 1)
            key = std::min(key, nodes[node]);
        return unpack(key);
    }

    /** Give the winner's leaf a new event time and re-play its path. */
    void
    replayWinner(uint64_t time)
    {
        uint64_t *nodes = storage_.data() + first_;
        const uint32_t leaf = winner();
        uint64_t key = pack(time, leaf);
        for (uint32_t node = (width_ + leaf) >> 1; node != 0;
             node >>= 1) {
            // key ^ other ^ lo is the larger key. Spelled std::max,
            // GCC turns the store back over `other` into a conditional
            // store: a branch that mispredicts on half the matches.
            const uint64_t other = nodes[node];
            const uint64_t lo = std::min(key, other);
            nodes[node] = key ^ other ^ lo;
            key = lo;
        }
        nodes[0] = key;
    }

  private:
    static constexpr uint64_t kLeafMask = (1ull << kLeafBits) - 1;
    static constexpr size_t kLineBytes = 64;
    static constexpr size_t kLineWords = kLineBytes / sizeof(uint64_t);

    static uint64_t
    pack(uint64_t time, uint32_t leaf)
    {
        util::panicIf(time >= kTimeLimit && time != kNoEvent,
                      "event time beyond the event tree's 54-bit range");
        return time << kLeafBits | leaf;
    }

    static uint64_t
    unpack(uint64_t key)
    {
        const uint64_t time = key >> kLeafBits;
        return time == kTimeLimit ? kNoEvent : time;
    }

    uint32_t width_;  //!< leaves, a power of two
    // The nodes, [0] the winner and [1, L) the losers, are
    // storage_[first_, first_ + L), whole cache lines of their own.
    std::vector<uint64_t> storage_;
    size_t first_ = 0;
    std::vector<uint64_t> winners_;  //!< rebuild scratch: subtree
                                     //!< winners, leaves at [L, 2L)
};

} // namespace tsp::sim

#endif // TSP_SIM_EVENT_TREE_H
