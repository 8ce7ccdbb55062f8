#include "core/cluster_set.h"

#include <utility>

#include "util/error.h"

namespace tsp::placement {

ClusterSet::ClusterSet(uint32_t threads) : threads_(threads)
{
    util::fatalIf(threads == 0, "cluster set needs >= 1 thread");
    clusters_.resize(threads);
    for (uint32_t t = 0; t < threads; ++t)
        clusters_[t] = {t};
}

void
ClusterSet::merge(size_t a, size_t b)
{
    util::panicIf(a == b || a >= clusters_.size() || b >= clusters_.size(),
                  "invalid cluster merge");
    if (a > b)
        std::swap(a, b);
    auto &dst = clusters_[a];
    auto &src = clusters_[b];
    dst.insert(dst.end(), src.begin(), src.end());
    clusters_.erase(clusters_.begin() +
                    static_cast<std::ptrdiff_t>(b));
}

PlacementMap
ClusterSet::toPlacement(uint32_t processors) const
{
    util::fatalIf(clusters_.size() > processors,
                  "more clusters than processors; clustering incomplete");
    std::vector<uint32_t> procOf(threads_, 0);
    for (size_t c = 0; c < clusters_.size(); ++c)
        for (uint32_t tid : clusters_[c])
            procOf[tid] = static_cast<uint32_t>(c);
    return PlacementMap(processors, std::move(procOf));
}

} // namespace tsp::placement
