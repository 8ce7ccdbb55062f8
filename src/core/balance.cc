#include "core/balance.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "util/bits.h"
#include "util/error.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace tsp::placement {

namespace {

/**
 * Exact bin packing behind threadBalanceFeasible: place every item
 * (cluster size, largest first) into a bin (processor) so that each
 * bin is filled exactly.
 *
 * Bins with equal residual capacity are interchangeable, so the state
 * keeps only how many bins have each residual, and the search
 * branches once per distinct residual. A depth-first search that
 * proves a state infeasible is still exponential on shapes where the
 * processor count does not divide the thread count (40 threads on 15
 * processors took seconds), so refuted states are remembered, keyed
 * exactly by (next item, residual histogram), and never explored
 * twice. Keys live back to back in one arena and are found through a
 * hash of their words; nothing is allocated per search node.
 */
class ExactPacker
{
  public:
    /** @p items sorted descending, each <= @p hi. */
    ExactPacker(std::vector<uint32_t> items, uint32_t processors,
                uint32_t lo, uint32_t hi, uint32_t numHi)
        : items_(std::move(items)), binsWith_(hi + 1, 0),
          key_(hi + 1, 0)
    {
        binsWith_[hi] += numHi;
        binsWith_[lo] += processors - numHi;
    }

    bool solve() { return pack(0); }

  private:
    bool
    pack(size_t next)
    {
        // Residuals always sum to the items left, so once only items
        // of size <= 1 remain any placement fills every bin.
        if (next == items_.size() || items_[next] <= 1)
            return true;
        const uint64_t h = stateKey(next);
        if (refuted(h))
            return false;
        const uint32_t need = items_[next];
        // Tightest fit first: an exact fit closes a bin.
        for (uint32_t r = need; r < binsWith_.size(); ++r) {
            if (binsWith_[r] == 0)
                continue;
            --binsWith_[r];
            ++binsWith_[r - need];
            const bool ok = pack(next + 1);
            ++binsWith_[r];
            --binsWith_[r - need];
            if (ok)
                return true;
        }
        // The recursion reused key_; this state's key is rebuilt.
        refute(stateKey(next));
        return false;
    }

    /** Write the state's key into key_ and return its hash. */
    uint64_t
    stateKey(size_t next)
    {
        key_[0] = static_cast<uint32_t>(next);
        std::copy(binsWith_.begin() + 1, binsWith_.end(),
                  key_.begin() + 1);
        uint64_t h = 0;
        for (uint32_t w : key_)
            h = util::mix64(h ^ w);
        return h;
    }

    /** Whether key_ (hashing to @p h) is a refuted state. */
    bool
    refuted(uint64_t h) const
    {
        const uint32_t *head = byHash_.find(h);
        for (uint32_t e = head ? *head : 0; e != 0; e = chain_[e - 1])
            if (std::memcmp(&keys_[(e - 1) * key_.size()], key_.data(),
                            key_.size() * sizeof(uint32_t)) == 0)
                return true;
        return false;
    }

    /** Record key_ (hashing to @p h) as refuted. */
    void
    refute(uint64_t h)
    {
        keys_.insert(keys_.end(), key_.begin(), key_.end());
        uint32_t &head = *byHash_.tryEmplace(h).first;
        chain_.push_back(head);
        head = static_cast<uint32_t>(chain_.size());
    }

    std::vector<uint32_t> items_;
    std::vector<uint32_t> binsWith_;  //!< bins per residual capacity
    std::vector<uint32_t> key_;       //!< scratch: the current state
    std::vector<uint32_t> keys_;      //!< refuted keys, back to back
    std::vector<uint32_t> chain_;     //!< next entry with the same hash
    util::FlatMap<uint64_t, uint32_t> byHash_;  //!< hash -> last entry
};

} // namespace

bool
threadBalanceFeasible(std::vector<uint32_t> sizes, uint32_t processors)
{
    util::fatalIf(processors == 0, "need >= 1 processor");
    uint32_t t = std::accumulate(sizes.begin(), sizes.end(), 0u);
    if (t == 0 || processors == 1)
        return true;
    if (t < processors) {
        // Some processors stay empty; every cluster must be a singleton.
        return std::all_of(sizes.begin(), sizes.end(),
                           [](uint32_t s) { return s == 1; });
    }
    if (sizes.size() < processors)
        return false;  // merging only shrinks the cluster count

    uint32_t lo = t / processors;
    uint32_t hi = static_cast<uint32_t>(util::divCeil(t, processors));
    uint32_t numHi = t % processors;  // bins that must hold ceil threads

    // Largest-first ordering prunes the search dramatically.
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    if (sizes.front() > hi)
        return false;
    return ExactPacker(std::move(sizes), processors, lo, hi, numHi)
        .solve();
}

ThreadBalanceConstraint::ThreadBalanceConstraint(uint32_t threads,
                                                 uint32_t processors)
    : processors_(processors),
      ceilSize_(static_cast<uint32_t>(util::divCeil(threads, processors)))
{
    util::fatalIf(processors == 0, "need >= 1 processor");
}

bool
ThreadBalanceConstraint::canMerge(const ClusterSet &cs, size_t a,
                                  size_t b) const
{
    const size_t small = std::min(cs.size(a), cs.size(b));
    const size_t large = std::max(cs.size(a), cs.size(b));
    if (small + large > ceilSize_)
        return false;

    // One answer per unordered size pair per partition.
    if (memo_.empty())
        memo_.assign((size_t{ceilSize_} + 1) * (ceilSize_ + 1), kUnknown);
    if (memoVersion_ != cs.version()) {
        for (size_t i : memoTouched_)
            memo_[i] = kUnknown;
        memoTouched_.clear();
        memoVersion_ = cs.version();
    }
    const size_t slot = small * (ceilSize_ + 1) + large;
    if (memo_[slot] != kUnknown)
        return memo_[slot] == kFeasible;

    std::vector<uint32_t> sizes;
    sizes.reserve(cs.clusterCount() - 1);
    for (size_t c = 0; c < cs.clusterCount(); ++c) {
        if (c == a || c == b)
            continue;
        sizes.push_back(static_cast<uint32_t>(cs.size(c)));
    }
    sizes.push_back(static_cast<uint32_t>(small + large));
    const bool ok = threadBalanceFeasible(std::move(sizes), processors_);
    memo_[slot] = ok ? kFeasible : kInfeasible;
    memoTouched_.push_back(slot);
    return ok;
}

LoadBalanceConstraint::LoadBalanceConstraint(
    const std::vector<uint64_t> &threadLength, uint32_t processors,
    double slack)
    : threadLength_(threadLength), slack_(slack)
{
    util::fatalIf(processors == 0, "need >= 1 processor");
    uint64_t total = std::accumulate(threadLength.begin(),
                                     threadLength.end(), uint64_t{0});
    idealLoad_ = static_cast<double>(total) /
                 static_cast<double>(processors);
}

bool
LoadBalanceConstraint::canMerge(const ClusterSet &cs, size_t a,
                                size_t b) const
{
    double merged = static_cast<double>(cs.sum(threadLength_, a) +
                                        cs.sum(threadLength_, b));
    return merged <= idealLoad_ * (1.0 + slack_);
}

bool
LoadBalanceConstraint::relax()
{
    if (slack_ > 8.0)
        return false;
    slack_ = slack_ * 1.5 + 0.01;
    return true;
}

} // namespace tsp::placement
