/**
 * @file
 * Working partition state for the iterative cluster-combining engine of
 * Section 2.1: every thread starts in its own cluster; clusters are
 * merged until exactly p remain.
 *
 * The set also keeps, across merges, the sums the engine scores and
 * checks merges with: for each tracked pair matrix the cross sum
 * between every two clusters, and for each tracked per-thread vector
 * every cluster's sum. A merge updates them in O(k) for k clusters, so
 * no score is ever recomputed from cluster members.
 */

#ifndef TSP_CORE_CLUSTER_SET_H
#define TSP_CORE_CLUSTER_SET_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/placement_map.h"
#include "stats/pair_matrix.h"
#include "util/error.h"

namespace tsp::placement {

/** A partition of threads into clusters that only ever merge. */
class ClusterSet
{
  public:
    /** Start with @p threads singleton clusters. */
    explicit ClusterSet(uint32_t threads);

    /**
     * Current number of clusters. Clusters are indexed 0..count-1 in
     * the order of their lowest thread ids.
     */
    size_t clusterCount() const { return slotOf_.size(); }

    /** Total number of threads. */
    uint32_t threadCount() const { return threads_; }

    /** Members of cluster @p c. */
    const std::vector<uint32_t> &members(size_t c) const
    {
        return members_[slotOf_.at(c)];
    }

    /** Size of cluster @p c. */
    size_t size(size_t c) const { return members_[slotOf_[c]].size(); }

    /**
     * Names this partition: a fresh value, from one process-wide
     * counter, on construction and on every merge. Two sets with the
     * same version (a set and its copy) hold the same clusters, so a
     * memo keyed by it can never return a stale answer.
     */
    uint64_t version() const { return version_; }

    /**
     * Keep the cross sum over @p m between every two clusters from now
     * on. Call before the first merge; @p m must outlive the set and
     * have one row per thread. Tracking a matrix twice is a no-op.
     */
    void track(const stats::PairMatrix &m);

    /**
     * Keep every cluster's sum of @p perThread (one value per thread)
     * from now on. Same rules as track(const stats::PairMatrix &).
     */
    void track(const std::vector<uint64_t> &perThread);

    /**
     * Sum of the tracked matrix @p m over every thread pair with one
     * thread in cluster @p a and the other in cluster @p b (a != b).
     */
    double
    crossSum(const stats::PairMatrix &m, size_t a, size_t b) const
    {
        const auto &t = table(m);
        return t.cells[size_t{slotOf_[a]} * threads_ + slotOf_[b]];
    }

    /** Sum of the tracked vector @p perThread over cluster @p c. */
    uint64_t
    sum(const std::vector<uint64_t> &perThread, size_t c) const
    {
        for (const auto &s : sums_)
            if (s.perThread == &perThread)
                return s.bySlot[slotOf_[c]];
        util::panic("cluster set does not track this vector");
    }

    /**
     * Merge cluster @p b into cluster @p a (a != b). Indices of later
     * clusters shift down by one.
     */
    void merge(size_t a, size_t b);

    /** Convert the current partition into a placement map. */
    PlacementMap toPlacement(uint32_t processors) const;

  private:
    /** Cross sums over one matrix: slot x slot, row-major. */
    struct CrossTable
    {
        const stats::PairMatrix *matrix;
        std::vector<double> cells;
    };

    /** Per-slot sums of one per-thread vector. */
    struct ClusterSums
    {
        const std::vector<uint64_t> *perThread;
        std::vector<uint64_t> bySlot;
    };

    const CrossTable &
    table(const stats::PairMatrix &m) const
    {
        for (const auto &t : cross_)
            if (t.matrix == &m)
                return t;
        util::panic("cluster set does not track this matrix");
    }

    uint32_t threads_;
    uint64_t version_;
    /**
     * Cluster index -> slot. A cluster keeps its slot for life; the
     * slot is its lowest thread id, so this list stays ascending.
     */
    std::vector<uint32_t> slotOf_;
    std::vector<std::vector<uint32_t>> members_;  //!< by slot
    std::vector<CrossTable> cross_;
    std::vector<ClusterSums> sums_;
};

} // namespace tsp::placement

#endif // TSP_CORE_CLUSTER_SET_H
