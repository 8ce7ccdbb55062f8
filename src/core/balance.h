/**
 * @file
 * Balance constraints governing which cluster merges are permitted
 * (Section 2): thread-balance (each processor gets floor(t/p) or
 * ceil(t/p) threads) and load-balance (combined instruction load within
 * a slack of the ideal per-processor load; the paper uses ~10%).
 *
 * Both are built so that the clustering engine always finds a
 * permitted merge, possibly after relaxing the load-balance slack; they
 * stand in for the paper's backtracking (core/clusterer.h).
 */

#ifndef TSP_CORE_BALANCE_H
#define TSP_CORE_BALANCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cluster_set.h"

namespace tsp::placement {

/**
 * Exact feasibility oracle for the thread-balance criterion: can the
 * clusters with the given @p sizes still be merged down into exactly
 * @p processors clusters, each of size floor(t/p) or ceil(t/p)?
 *
 * This is a bin-packing instance, solved exactly by depth-first
 * search over the bins' residual capacities. A plain search is
 * exponential when it has to prove a state infeasible, which happens
 * on shapes where @p processors does not divide the thread count (40
 * threads on 15 processors took seconds, 48 on 18 over a minute), so
 * the search remembers every state it has refuted, keyed exactly by
 * the next item and the multiset of residuals, and explores no state
 * twice.
 */
bool threadBalanceFeasible(std::vector<uint32_t> sizes,
                           uint32_t processors);

/**
 * Interface deciding whether two clusters may combine. Implementations
 * are consulted by the clustering engine after the sharing metric has
 * ranked candidate pairs (sharing first, balance second — Section 2).
 */
class BalanceConstraint
{
  public:
    virtual ~BalanceConstraint() = default;

    /**
     * Ask @p cs to keep the sums canMerge() reads (ClusterSet::track).
     * Call on a set with no merges yet.
     */
    virtual void track(ClusterSet &) const {}

    /** May clusters @p a and @p b of @p cs be merged? */
    virtual bool canMerge(const ClusterSet &cs, size_t a,
                          size_t b) const = 0;

    /**
     * Called when no candidate pair is mergeable but more merges are
     * needed. Returns true if the constraint relaxed itself and the
     * engine should retry, false if it cannot relax further (the
     * engine then throws FatalError).
     */
    virtual bool relax() { return false; }
};

/**
 * The paper's thread-balance criterion, backed by the exact feasibility
 * oracle so that a permitted merge can always be completed. relax() is
 * never needed.
 *
 * Within one partition the multiset of cluster sizes after merging
 * @p a and @p b depends only on {|a|, |b|}, so canMerge asks the
 * oracle once per unordered size pair and remembers the answer until
 * the partition changes (a new ClusterSet::version()). That memo makes
 * one object unsafe to share between threads.
 */
class ThreadBalanceConstraint : public BalanceConstraint
{
  public:
    ThreadBalanceConstraint(uint32_t threads, uint32_t processors);

    bool canMerge(const ClusterSet &cs, size_t a,
                  size_t b) const override;

  private:
    static constexpr uint8_t kUnknown = 0;
    static constexpr uint8_t kInfeasible = 1;
    static constexpr uint8_t kFeasible = 2;

    uint32_t processors_;
    uint32_t ceilSize_;

    /** Partition the memo's answers belong to. */
    mutable uint64_t memoVersion_ = 0;
    /** Answer per (smaller, larger) size pair, row-major by smaller. */
    mutable std::vector<uint8_t> memo_;
    /** Entries of memo_ set for memoVersion_, to reset on change. */
    mutable std::vector<size_t> memoTouched_;
};

/**
 * The +LB criterion: a merge is allowed when the combined cluster load
 * does not exceed (1 + slack) of the ideal per-processor load. Starts
 * at the paper's 10% slack and relaxes geometrically when the engine
 * stalls, where the paper backtracks. Slack 1.0 always admits merging
 * the two lightest clusters (they hold under twice the ideal load), and
 * the sixth relaxation already reaches 1.35, so one clustering run
 * never calls relax() more than six times.
 */
class LoadBalanceConstraint : public BalanceConstraint
{
  public:
    /**
     * @param threadLength per-thread instruction counts
     * @param processors   target cluster count
     * @param slack        initial allowed excess over the ideal load
     */
    LoadBalanceConstraint(const std::vector<uint64_t> &threadLength,
                          uint32_t processors, double slack = 0.10);

    /** Keeps each cluster's load: the sum of its thread lengths. */
    void track(ClusterSet &cs) const override { cs.track(threadLength_); }

    bool canMerge(const ClusterSet &cs, size_t a,
                  size_t b) const override;

    bool relax() override;

    /** Current slack value (grows only via relax()). */
    double slack() const { return slack_; }

  private:
    std::vector<uint64_t> threadLength_;
    double idealLoad_;
    double slack_;
};

} // namespace tsp::placement

#endif // TSP_CORE_BALANCE_H
