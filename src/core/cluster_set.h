/**
 * @file
 * Working partition state for the iterative cluster-combining engine of
 * Section 2.1: every thread starts in its own cluster; clusters are
 * merged until exactly p remain.
 */

#ifndef TSP_CORE_CLUSTER_SET_H
#define TSP_CORE_CLUSTER_SET_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/placement_map.h"

namespace tsp::placement {

/** A partition of threads into clusters that only ever merge. */
class ClusterSet
{
  public:
    /** Start with @p threads singleton clusters. */
    explicit ClusterSet(uint32_t threads);

    /** Current number of clusters. */
    size_t clusterCount() const { return clusters_.size(); }

    /** Total number of threads. */
    uint32_t threadCount() const { return threads_; }

    /** Members of cluster @p c. */
    const std::vector<uint32_t> &members(size_t c) const
    {
        return clusters_.at(c);
    }

    /** Size of cluster @p c. */
    size_t size(size_t c) const { return clusters_.at(c).size(); }

    /**
     * Merge cluster @p b into cluster @p a (a != b). Indices of later
     * clusters shift down by one.
     */
    void merge(size_t a, size_t b);

    /** Convert the current partition into a placement map. */
    PlacementMap toPlacement(uint32_t processors) const;

  private:
    uint32_t threads_;
    std::vector<std::vector<uint32_t>> clusters_;
};

} // namespace tsp::placement

#endif // TSP_CORE_CLUSTER_SET_H
