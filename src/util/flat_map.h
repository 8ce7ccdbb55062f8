/**
 * @file
 * Open-addressing hash table for the simulator's hot per-reference
 * state (directory entries, cache departure history).
 *
 * Why not std::unordered_map: the standard container is node-based —
 * every insert heap-allocates, every lookup chases a bucket pointer to
 * a scattered node, and a trace-scale simulation does both millions of
 * times per run. FlatMap stores its slots in one contiguous array
 * (power-of-two capacity, linear probing), so a lookup is a mixed hash
 * plus a short sequential scan, and a pre-reserved map never allocates
 * again — the property the simulate-loop allocation test pins.
 *
 * Design:
 *  - linear probing over a single slot array; occupancy in a parallel
 *    byte array so probing touches hot, densely packed metadata;
 *  - multiplicative (splitmix64-style) hash mixing, so sequential
 *    block addresses — the common trace pattern — spread uniformly;
 *  - erase by backward shifting (no tombstones): probe chains stay
 *    minimal no matter the insert/erase history;
 *  - growth doubles capacity at 7/8 load; reserve() sizes the table so
 *    the planned insert count never triggers a rehash.
 *
 * Not thread-safe; the simulator owns one per cache/directory.
 */

#ifndef TSP_UTIL_FLAT_MAP_H
#define TSP_UTIL_FLAT_MAP_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tsp::util {

/** Default FlatMap hash: splitmix64 finalizer over the key's bits. */
struct FlatHash
{
    uint64_t operator()(uint64_t x) const { return mix64(x); }
};

/**
 * Open-addressing hash map from an integral key to V. See the file
 * comment for the design; the API mirrors the std::unordered_map
 * subset the simulator uses (find / tryEmplace / erase / iteration).
 */
template <typename K, typename V, typename Hash = FlatHash>
class FlatMap
{
  public:
    /** One storage slot; valid only where occupied. */
    struct Slot
    {
        K key;
        V value;
    };

    FlatMap() = default;

    /**
     * Ensure capacity for @p n entries without rehashing: after
     * reserve(n), up to n entries insert allocation-free.
     */
    void
    reserve(size_t n)
    {
        size_t needed = slotsFor(n);
        if (needed > slots_.size())
            rehash(needed);
    }

    /** Number of entries. */
    size_t size() const { return size_; }

    /** True when no entries are present. */
    bool empty() const { return size_ == 0; }

    /** Current slot-array capacity (entries fit up to 7/8 of this). */
    size_t capacity() const { return slots_.size(); }

    /** Pointer to @p key's value, or nullptr when absent. */
    V *
    find(const K &key)
    {
        if (size_ == 0)
            return nullptr;
        size_t i = Hash{}(key)&mask_;
        while (used_[i]) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    /** Const lookup. */
    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /**
     * Find @p key or insert it with a value-initialized V. Returns the
     * value pointer and whether an insert happened (the try_emplace
     * contract). The pointer is invalidated by any later insert that
     * grows the table — don't hold it across mutations.
     */
    std::pair<V *, bool>
    tryEmplace(const K &key)
    {
        if (needsGrowth())
            rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
        size_t i = Hash{}(key)&mask_;
        while (used_[i]) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        used_[i] = 1;
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return {&slots_[i].value, true};
    }

    /**
     * Erase @p key; returns whether it was present. Uses backward
     * shifting, so no tombstones accumulate: every slot in the probe
     * chain after the hole is examined and moved back when its home
     * position lies at or before the hole.
     */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        size_t i = Hash{}(key)&mask_;
        while (used_[i]) {
            if (slots_[i].key == key) {
                shiftBack(i);
                --size_;
                return true;
            }
            i = (i + 1) & mask_;
        }
        return false;
    }

    /** Drop every entry; capacity is retained. */
    void
    clear()
    {
        std::fill(used_.begin(), used_.end(), uint8_t{0});
        size_ = 0;
    }

    /** Visit every (key, value) pair, in unspecified order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (used_[i])
                fn(slots_[i].key, slots_[i].value);
    }

    /** Const iterator over occupied slots, in unspecified order. */
    class const_iterator
    {
      public:
        const_iterator(const FlatMap *map, size_t pos)
            : map_(map), pos_(pos)
        {
            skipEmpty();
        }

        const Slot &operator*() const { return map_->slots_[pos_]; }
        const Slot *operator->() const { return &map_->slots_[pos_]; }

        const_iterator &
        operator++()
        {
            ++pos_;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return pos_ == o.pos_;
        }

      private:
        void
        skipEmpty()
        {
            while (pos_ < map_->slots_.size() && !map_->used_[pos_])
                ++pos_;
        }

        const FlatMap *map_;
        size_t pos_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, slots_.size()}; }

  private:
    static constexpr size_t kMinSlots = 16;

    /** Smallest power-of-two slot count keeping n entries <= 7/8 load. */
    static size_t
    slotsFor(size_t n)
    {
        size_t target = n + n / 7 + 1;  // ceil(n / (7/8))
        return std::max(kMinSlots, std::bit_ceil(target));
    }

    bool
    needsGrowth() const
    {
        // Grow at 7/8 occupancy (and on first insert).
        return (size_ + 1) * 8 > slots_.size() * 7;
    }

    void
    rehash(size_t newSlots)
    {
        std::vector<Slot> oldSlots = std::move(slots_);
        std::vector<uint8_t> oldUsed = std::move(used_);
        slots_.assign(newSlots, Slot{});
        used_.assign(newSlots, 0);
        mask_ = newSlots - 1;
        for (size_t i = 0; i < oldSlots.size(); ++i) {
            if (!oldUsed[i])
                continue;
            size_t j = Hash{}(oldSlots[i].key) & mask_;
            while (used_[j])
                j = (j + 1) & mask_;
            used_[j] = 1;
            slots_[j] = std::move(oldSlots[i]);
        }
    }

    /** Backward-shift deletion starting from hole @p hole. */
    void
    shiftBack(size_t hole)
    {
        size_t i = hole;
        size_t j = i;
        for (;;) {
            j = (j + 1) & mask_;
            if (!used_[j])
                break;
            size_t home = Hash{}(slots_[j].key) & mask_;
            // j may fill the hole at i only if its home position does
            // not lie cyclically inside (i, j] — otherwise moving it
            // would break its own probe chain.
            if (((j - home) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = std::move(slots_[j]);
                i = j;
            }
        }
        used_[i] = 0;
    }

    std::vector<Slot> slots_;
    std::vector<uint8_t> used_;
    size_t size_ = 0;
    size_t mask_ = 0;
};

} // namespace tsp::util

#endif // TSP_UTIL_FLAT_MAP_H
