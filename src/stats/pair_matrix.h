/**
 * @file
 * Symmetric matrix over thread pairs. The central data structure for both
 * static sharing metrics (shared-references(t_a, t_b), Section 2.1) and
 * dynamically measured coherence-traffic attribution (Section 4.2).
 */

#ifndef TSP_STATS_PAIR_MATRIX_H
#define TSP_STATS_PAIR_MATRIX_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/summary.h"

namespace tsp::stats {

/**
 * Dense symmetric n x n matrix of doubles with a zero diagonal,
 * storing only the upper triangle. Indices are thread ids.
 */
class PairMatrix
{
  public:
    /** An empty (0 x 0) matrix. */
    PairMatrix() = default;

    /** Construct an n x n zero matrix. */
    explicit PairMatrix(size_t n);

    /** Number of items (threads). */
    size_t size() const { return n_; }

    /** Value for the unordered pair (i, j); 0 when i == j. */
    double get(size_t i, size_t j) const;

    /** Set the value for the unordered pair (i, j); i != j required. */
    void set(size_t i, size_t j, double v);

    /** Add @p v to the unordered pair (i, j); i != j required. */
    void add(size_t i, size_t j, double v);

    /** Sum over all unordered pairs. */
    double total() const;

    /**
     * Sum of values over all pairs (a, b) with a in @p groupA and
     * b in @p groupB. The groups must be disjoint.
     */
    double crossSum(const std::vector<uint32_t> &groupA,
                    const std::vector<uint32_t> &groupB) const;

    /** Sum over all unordered pairs drawn from within @p group. */
    double withinSum(const std::vector<uint32_t> &group) const;

    /** Summary over all unordered-pair values (mean, Dev%, etc.). */
    Summary pairSummary() const;

  private:
    size_t index(size_t i, size_t j) const;

    size_t n_ = 0;
    std::vector<double> cells_;  //!< upper triangle, row-major
};

} // namespace tsp::stats

#endif // TSP_STATS_PAIR_MATRIX_H
