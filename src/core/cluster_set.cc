#include "core/cluster_set.h"

#include <atomic>
#include <utility>

namespace tsp::placement {

namespace {

uint64_t
nextVersion()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

ClusterSet::ClusterSet(uint32_t threads)
    : threads_(threads), version_(nextVersion())
{
    util::fatalIf(threads == 0, "cluster set needs >= 1 thread");
    slotOf_.resize(threads);
    members_.resize(threads);
    for (uint32_t t = 0; t < threads; ++t) {
        slotOf_[t] = t;
        members_[t] = {t};
    }
}

void
ClusterSet::track(const stats::PairMatrix &m)
{
    for (const auto &t : cross_)
        if (t.matrix == &m)
            return;
    util::panicIf(m.size() != threads_,
                  "tracked matrix does not match the thread count");
    util::panicIf(slotOf_.size() != threads_,
                  "track a matrix before the first merge");
    CrossTable t{&m, std::vector<double>(size_t{threads_} * threads_)};
    for (uint32_t i = 0; i < threads_; ++i)
        for (uint32_t j = 0; j < threads_; ++j)
            t.cells[size_t{i} * threads_ + j] = m.get(i, j);
    cross_.push_back(std::move(t));
}

void
ClusterSet::track(const std::vector<uint64_t> &perThread)
{
    for (const auto &s : sums_)
        if (s.perThread == &perThread)
            return;
    util::panicIf(perThread.size() != threads_,
                  "tracked vector does not match the thread count");
    util::panicIf(slotOf_.size() != threads_,
                  "track a vector before the first merge");
    sums_.push_back({&perThread, perThread});
}

void
ClusterSet::merge(size_t a, size_t b)
{
    util::panicIf(a == b || a >= slotOf_.size() || b >= slotOf_.size(),
                  "invalid cluster merge");
    if (a > b)
        std::swap(a, b);
    const uint32_t dst = slotOf_[a];
    const uint32_t src = slotOf_[b];

    // crossSum(A u B, C) = crossSum(A, C) + crossSum(B, C). Every
    // matrix the analysis or the simulator fills holds integer counts,
    // and double sums of integers below 2^53 are exact, so these sums
    // equal a sum over members in any order of addition and a score
    // stays one division of exact values.
    for (auto &t : cross_) {
        double *rowDst = &t.cells[size_t{dst} * threads_];
        const double *rowSrc = &t.cells[size_t{src} * threads_];
        for (uint32_t c : slotOf_) {
            if (c == dst || c == src)
                continue;
            rowDst[c] += rowSrc[c];
            t.cells[size_t{c} * threads_ + dst] = rowDst[c];
        }
    }
    for (auto &s : sums_)
        s.bySlot[dst] += s.bySlot[src];

    auto &into = members_[dst];
    auto &from = members_[src];
    into.insert(into.end(), from.begin(), from.end());
    from = {};
    slotOf_.erase(slotOf_.begin() + static_cast<std::ptrdiff_t>(b));
    version_ = nextVersion();
}

PlacementMap
ClusterSet::toPlacement(uint32_t processors) const
{
    util::fatalIf(slotOf_.size() > processors,
                  "more clusters than processors; clustering incomplete");
    std::vector<uint32_t> procOf(threads_, 0);
    for (size_t c = 0; c < slotOf_.size(); ++c)
        for (uint32_t tid : members(c))
            procOf[tid] = static_cast<uint32_t>(c);
    return PlacementMap(processors, std::move(procOf));
}

} // namespace tsp::placement
