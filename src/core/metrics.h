/**
 * @file
 * Sharing metrics for the cluster-combining engine. Each metric ranks
 * candidate cluster pairs; the engine merges the highest-ranked pair the
 * balance constraint allows (Section 2.1, step 2).
 *
 * All pair-averaged metrics use the paper's normalization: the sum of
 * shared references between cross-cluster thread pairs divided by
 * |c_a| * |c_b|, so clusters of unequal size compare fairly.
 *
 * A metric reads only sums the ClusterSet keeps across merges (cross
 * sums of pair matrices, per-cluster sums of per-thread vectors); it
 * names them in track() and scores from them in O(1).
 */

#ifndef TSP_CORE_METRICS_H
#define TSP_CORE_METRICS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster_set.h"
#include "stats/pair_matrix.h"

namespace tsp::placement {

/**
 * Score assigned to a candidate merge: candidates are ordered by
 * primary, then by tiebreak (both descending).
 */
struct MergeScore
{
    double primary = 0.0;
    double tiebreak = 0.0;

    bool
    operator<(const MergeScore &o) const
    {
        if (primary != o.primary)
            return primary < o.primary;
        return tiebreak < o.tiebreak;
    }
};

/**
 * Interface of a cluster-pair sharing metric.
 */
class SharingMetric
{
  public:
    virtual ~SharingMetric() = default;

    /** Metric name for reports. */
    virtual std::string name() const = 0;

    /**
     * Ask @p cs to keep the sums score() reads (ClusterSet::track).
     * Call on a set with no merges yet.
     */
    virtual void track(ClusterSet &cs) const = 0;

    /** Score for merging clusters @p a and @p b of @p cs. */
    virtual MergeScore score(const ClusterSet &cs, size_t a,
                             size_t b) const = 0;
};

/**
 * Averaged cross-cluster sum over a pair matrix @p cs tracks:
 * crossSum / (|a| * |b|).
 */
inline double
pairAverage(const stats::PairMatrix &m, const ClusterSet &cs, size_t a,
            size_t b)
{
    return cs.crossSum(m, a, b) / (static_cast<double>(cs.size(a)) *
                                   static_cast<double>(cs.size(b)));
}

/**
 * SHARE-REFS: maximize averaged shared references between the clusters
 * being combined. Also the base of the metrics that read one matrix.
 */
class ShareRefsMetric : public SharingMetric
{
  public:
    explicit ShareRefsMetric(const stats::PairMatrix &sharedRefs)
        : refs_(sharedRefs)
    {}

    std::string name() const override { return "SHARE-REFS"; }
    void track(ClusterSet &cs) const override { cs.track(refs_); }
    MergeScore score(const ClusterSet &cs, size_t a,
                     size_t b) const override;

  protected:
    const stats::PairMatrix &refs_;
};

/**
 * SHARE-ADDR: like SHARE-REFS, but among candidates with equal shared
 * references prefer the pair with the smaller shared working set (more
 * references per shared address).
 */
class ShareAddrMetric : public ShareRefsMetric
{
  public:
    ShareAddrMetric(const stats::PairMatrix &sharedRefs,
                    const stats::PairMatrix &sharedAddrs)
        : ShareRefsMetric(sharedRefs), addrs_(sharedAddrs)
    {}

    std::string name() const override { return "SHARE-ADDR"; }
    void track(ClusterSet &cs) const override;
    MergeScore score(const ClusterSet &cs, size_t a,
                     size_t b) const override;

  private:
    const stats::PairMatrix &addrs_;
};

/**
 * MIN-PRIV: like SHARE-REFS, and additionally minimize the number of
 * private (unshared) addresses co-located on a processor.
 */
class MinPrivMetric : public ShareRefsMetric
{
  public:
    MinPrivMetric(const stats::PairMatrix &sharedRefs,
                  const std::vector<uint64_t> &threadPrivateAddrs)
        : ShareRefsMetric(sharedRefs), priv_(threadPrivateAddrs)
    {}

    std::string name() const override { return "MIN-PRIV"; }
    void track(ClusterSet &cs) const override;
    MergeScore score(const ClusterSet &cs, size_t a,
                     size_t b) const override;

  private:
    const std::vector<uint64_t> &priv_;
};

/**
 * MIN-INVS: minimize cross-processor shared references. Combining the
 * pair with the largest *unnormalized* cross-cluster sharing removes the
 * most would-be invalidation traffic from the interconnect; the raw sum
 * is exactly the cost of keeping the two clusters separated.
 */
class MinInvsMetric : public ShareRefsMetric
{
  public:
    using ShareRefsMetric::ShareRefsMetric;

    std::string name() const override { return "MIN-INVS"; }
    MergeScore score(const ClusterSet &cs, size_t a,
                     size_t b) const override;
};

/**
 * MAX-WRITES: SHARE-REFS over the write-shared references, the data
 * that actually causes invalidations. Construct it with that matrix.
 */
class MaxWritesMetric : public ShareRefsMetric
{
  public:
    using ShareRefsMetric::ShareRefsMetric;

    std::string name() const override { return "MAX-WRITES"; }
};

/**
 * MIN-SHARE: the deliberate worst case — co-locate threads with the
 * least mutual sharing to bound the performance range of sharing
 * effects.
 */
class MinShareMetric : public ShareRefsMetric
{
  public:
    using ShareRefsMetric::ShareRefsMetric;

    std::string name() const override { return "MIN-SHARE"; }
    MergeScore score(const ClusterSet &cs, size_t a,
                     size_t b) const override;
};

/**
 * COHERENCE-TRAFFIC: uses a dynamically measured thread-pair coherence
 * traffic matrix (from a one-thread-per-processor simulation) instead of
 * static shared-reference counts — the best case a sharing-based
 * placement could achieve (Section 4.2). It averages like SHARE-REFS,
 * over its own copy of that matrix.
 */
class CoherenceTrafficMetric : public SharingMetric
{
  public:
    explicit CoherenceTrafficMetric(stats::PairMatrix traffic)
        : traffic_(std::move(traffic))
    {}

    std::string name() const override { return "COHERENCE-TRAFFIC"; }
    void track(ClusterSet &cs) const override { cs.track(traffic_); }
    MergeScore score(const ClusterSet &cs, size_t a,
                     size_t b) const override;

  private:
    stats::PairMatrix traffic_;
};

} // namespace tsp::placement

#endif // TSP_CORE_METRICS_H
