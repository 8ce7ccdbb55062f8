#include "core/metrics.h"

namespace tsp::placement {

MergeScore
ShareRefsMetric::score(const ClusterSet &cs, size_t a, size_t b) const
{
    return {pairAverage(refs_, cs, a, b), 0.0};
}

void
ShareAddrMetric::track(ClusterSet &cs) const
{
    cs.track(refs_);
    cs.track(addrs_);
}

MergeScore
ShareAddrMetric::score(const ClusterSet &cs, size_t a, size_t b) const
{
    // Fewer distinct shared addresses for the same shared references
    // means a denser shared working set: prefer it.
    return {pairAverage(refs_, cs, a, b), -pairAverage(addrs_, cs, a, b)};
}

void
MinPrivMetric::track(ClusterSet &cs) const
{
    cs.track(refs_);
    cs.track(priv_);
}

MergeScore
MinPrivMetric::score(const ClusterSet &cs, size_t a, size_t b) const
{
    const uint64_t priv = cs.sum(priv_, a) + cs.sum(priv_, b);
    return {pairAverage(refs_, cs, a, b), -static_cast<double>(priv)};
}

MergeScore
MinInvsMetric::score(const ClusterSet &cs, size_t a, size_t b) const
{
    return {cs.crossSum(refs_, a, b), 0.0};
}

MergeScore
MinShareMetric::score(const ClusterSet &cs, size_t a, size_t b) const
{
    return {-pairAverage(refs_, cs, a, b), 0.0};
}

MergeScore
CoherenceTrafficMetric::score(const ClusterSet &cs, size_t a,
                              size_t b) const
{
    return {pairAverage(traffic_, cs, a, b), 0.0};
}

} // namespace tsp::placement
