/**
 * @file
 * The iterative cluster-combining engine of Section 2.1. All
 * sharing-based placement algorithms share this engine and differ only
 * in the metric (step 2) and the balance constraint applied when
 * combining (thread-balance, or load-balance for the +LB variants).
 */

#ifndef TSP_CORE_CLUSTERER_H
#define TSP_CORE_CLUSTERER_H

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/balance.h"
#include "core/cluster_set.h"
#include "core/metrics.h"
#include "core/placement_map.h"

namespace tsp::placement {

/**
 * Greedy hierarchical clusterer: combine the highest-metric pair the
 * balance constraint permits until one cluster per processor remains.
 *
 * Each merge is picked by one scan over the k(k-1)/2 cluster pairs.
 * Scores come from the sums the ClusterSet keeps across merges (the
 * metric and the constraint name them in track()), so a scan costs
 * O(k^2) score reads and a merge O(k) sum updates; nothing is
 * rescored from members and nothing is sorted.
 *
 * The paper backtracks when no pair is permitted (Section 2.1, step
 * 4). Neither constraint here can reach that dead end, so there is no
 * backtracking:
 *
 *  - thread-balance: the exact feasibility oracle permits only merges
 *    that leave the partition completable into balanced bins; with
 *    more clusters than processors some bin of that completion holds
 *    two clusters, and merging those two is permitted;
 *  - load-balance (+LB): a stall lets the constraint relax its slack.
 *    The two lightest of k > p clusters hold under twice the ideal
 *    load, so slack 1.0 always admits a merge, and relax() reaches it
 *    in six steps, far below its cap.
 *
 * A stall the constraint cannot relax (only a custom constraint can
 * cause one) throws FatalError.
 *
 * Ties: among pairs with equal scores the lowest (a, b) in cluster
 * index order wins, and cluster indices are ordered by each cluster's
 * lowest thread id. The placement is therefore a function of the
 * scores alone.
 */
class GreedyClusterer
{
  public:
    /**
     * @param metric     ranks candidate cluster pairs (not owned)
     * @param constraint decides merge legality; may self-relax (not owned)
     */
    GreedyClusterer(const SharingMetric &metric,
                    BalanceConstraint &constraint);

    /**
     * Observer invoked after every accepted merge with the partition
     * state, the merged clusters' (pre-merge) indices and the score
     * that won. Used by walkthrough tooling and tests; never affects
     * the result.
     */
    using MergeObserver = std::function<void(
        const ClusterSet &, size_t a, size_t b, MergeScore score)>;

    /** Install a merge observer (replaces any previous one). */
    void onMerge(MergeObserver observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Cluster @p threads threads into @p processors clusters and return
     * the placement. Throws FatalError on a stall the constraint cannot
     * relax.
     */
    PlacementMap run(uint32_t threads, uint32_t processors);

  private:
    const SharingMetric &metric_;
    BalanceConstraint &constraint_;
    MergeObserver observer_;
};

} // namespace tsp::placement

#endif // TSP_CORE_CLUSTERER_H
