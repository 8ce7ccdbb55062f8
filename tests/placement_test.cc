/**
 * @file
 * Tests for the paper's core contribution: the placement algorithms.
 * Includes a reproduction of the Section 2.1.1 worked example, the
 * sharing-metric normalization (the "4.5" calculation), balance
 * constraints with the exact feasibility oracle (checked against a
 * plain search), the +LB slack relaxation that replaces the paper's
 * backtracking, the tie rule, the kept cluster sums, differential runs
 * of the clustering engine against the rescore-and-sort engine it
 * replaced, LOAD-BAL quality bounds and the algorithm registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <set>

#include "analysis/static_analysis.h"
#include "core/algorithms.h"
#include "core/balance.h"
#include "core/cluster_set.h"
#include "core/clusterer.h"
#include "core/load_balance.h"
#include "core/metrics.h"
#include "core/placement_map.h"
#include "core/random_placement.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/app_profile.h"
#include "workload/generator.h"

namespace tsp::placement {
namespace {

// ---------------------------------------------------------- placement map

TEST(PlacementMap, ClustersGroupByProcessor)
{
    PlacementMap map(3, {0, 1, 0, 2, 1});
    auto groups = map.clusters();
    EXPECT_EQ(groups[0], (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(groups[1], (std::vector<uint32_t>{1, 4}));
    EXPECT_EQ(groups[2], (std::vector<uint32_t>{3}));
    EXPECT_EQ(map.threadsPerProcessor(),
              (std::vector<uint32_t>{2, 2, 1}));
}

TEST(PlacementMap, ThreadBalanceDetection)
{
    EXPECT_TRUE(PlacementMap(2, {0, 1, 0, 1}).isThreadBalanced());
    EXPECT_TRUE(PlacementMap(2, {0, 1, 0, 1, 0}).isThreadBalanced());
    EXPECT_FALSE(PlacementMap(2, {0, 0, 0, 1}).isThreadBalanced());
    // More processors than threads: idle processors allowed.
    EXPECT_TRUE(PlacementMap(4, {0, 1}).isThreadBalanced());
}

TEST(PlacementMap, LoadsAndImbalance)
{
    PlacementMap map(2, {0, 0, 1});
    std::vector<uint64_t> lengths{10, 20, 30};
    EXPECT_EQ(map.processorLoads(lengths),
              (std::vector<uint64_t>{30, 30}));
    EXPECT_DOUBLE_EQ(map.loadImbalance(lengths), 1.0);

    PlacementMap skew(2, {0, 0, 0});
    EXPECT_DOUBLE_EQ(skew.loadImbalance(lengths), 2.0);
}

TEST(PlacementMap, InvalidProcessorIsFatal)
{
    EXPECT_THROW(PlacementMap(2, {0, 2}), util::FatalError);
    EXPECT_THROW(PlacementMap(0, {}), util::FatalError);
}

TEST(PlacementMap, DescribeMentionsEveryThread)
{
    PlacementMap map(2, {0, 1, 1});
    std::string d = map.describe();
    EXPECT_NE(d.find("P0"), std::string::npos);
    EXPECT_NE(d.find("P1"), std::string::npos);
}

// ------------------------------------------------------------ cluster set

TEST(ClusterSet, StartsAsSingletons)
{
    ClusterSet cs(4);
    EXPECT_EQ(cs.clusterCount(), 4u);
    for (size_t c = 0; c < 4; ++c)
        EXPECT_EQ(cs.members(c), std::vector<uint32_t>{uint32_t(c)});
}

TEST(ClusterSet, MergeAndUndoRestoreState)
{
    ClusterSet cs(4);
    cs.merge(1, 3);
    EXPECT_EQ(cs.clusterCount(), 3u);
    EXPECT_EQ(cs.members(1), (std::vector<uint32_t>{1, 3}));
}

TEST(ClusterSet, ToPlacementMapsMembers)
{
    ClusterSet cs(4);
    cs.merge(0, 2);
    cs.merge(1, 2);  // index 2 is now the old {3}... merge {1} with {3}
    auto map = cs.toPlacement(2);
    EXPECT_EQ(map.processors(), 2u);
    EXPECT_EQ(map.processorOf(0), map.processorOf(2));
    EXPECT_EQ(map.processorOf(1), map.processorOf(3));
    EXPECT_NE(map.processorOf(0), map.processorOf(1));
}

TEST(ClusterSet, IncompleteClusteringIsFatal)
{
    ClusterSet cs(4);
    EXPECT_THROW(cs.toPlacement(2), util::FatalError);
}

TEST(ClusterSet, KeptSumsMatchSumsOverMembers)
{
    util::Rng rng(8);
    for (int iter = 0; iter < 20; ++iter) {
        const uint32_t t = 2 + static_cast<uint32_t>(rng.nextBelow(30));
        stats::PairMatrix m(t);
        std::vector<uint64_t> v(t);
        for (uint32_t i = 0; i < t; ++i) {
            v[i] = rng.nextBelow(1000);
            for (uint32_t j = i + 1; j < t; ++j)
                m.set(i, j, static_cast<double>(rng.nextBelow(50)));
        }
        ClusterSet cs(t);
        cs.track(m);
        cs.track(v);
        cs.track(m);  // tracking twice is a no-op
        while (cs.clusterCount() > 1) {
            const size_t a = rng.nextBelow(cs.clusterCount());
            const size_t b = (a + 1 + rng.nextBelow(cs.clusterCount() - 1)) %
                             cs.clusterCount();
            cs.merge(a, b);
            for (size_t x = 0; x < cs.clusterCount(); ++x) {
                uint64_t load = 0;
                for (uint32_t tid : cs.members(x))
                    load += v[tid];
                ASSERT_EQ(cs.sum(v, x), load);
                for (size_t y = 0; y < cs.clusterCount(); ++y) {
                    if (x == y)
                        continue;
                    ASSERT_EQ(cs.crossSum(m, x, y),
                              m.crossSum(cs.members(x), cs.members(y)));
                }
            }
        }
    }
}

TEST(ClusterSet, UntrackedOrLateTrackingPanics)
{
    stats::PairMatrix m(4), other(4);
    std::vector<uint64_t> v(4, 1);
    ClusterSet cs(4);
    cs.track(m);
    EXPECT_THROW(cs.crossSum(other, 0, 1), util::PanicError);
    EXPECT_THROW(cs.sum(v, 0), util::PanicError);
    EXPECT_THROW(cs.track(stats::PairMatrix(5)), util::PanicError);
    cs.merge(0, 1);
    EXPECT_THROW(cs.track(other), util::PanicError);
    EXPECT_THROW(cs.track(v), util::PanicError);
}

TEST(ClusterSet, IndicesFollowLowestThreadIds)
{
    ClusterSet cs(5);
    cs.merge(3, 1);  // {1,3} keeps index 1; {4} moves to index 3
    cs.merge(0, 3);  // {0,4}
    ASSERT_EQ(cs.clusterCount(), 3u);
    EXPECT_EQ(cs.members(0), (std::vector<uint32_t>{0, 4}));
    EXPECT_EQ(cs.members(1), (std::vector<uint32_t>{1, 3}));
    EXPECT_EQ(cs.members(2), (std::vector<uint32_t>{2}));
}

// ------------------------------------------------------------ feasibility

TEST(Feasibility, ExactPartitionCases)
{
    using V = std::vector<uint32_t>;
    EXPECT_TRUE(threadBalanceFeasible(V{1, 1, 1, 1}, 2));
    EXPECT_TRUE(threadBalanceFeasible(V{2, 2}, 2));
    EXPECT_FALSE(threadBalanceFeasible(V{3, 1}, 2));
    EXPECT_TRUE(threadBalanceFeasible(V{2, 1, 1}, 2));
    EXPECT_TRUE(threadBalanceFeasible(V{3, 2}, 2));   // t=5: 3 and 2
    EXPECT_FALSE(threadBalanceFeasible(V{4, 1}, 2));  // t=5 needs 3+2
    EXPECT_TRUE(threadBalanceFeasible(V{2, 2, 1}, 2));
    EXPECT_FALSE(threadBalanceFeasible(V{2, 2, 2}, 4));  // t=6: 2,2,1,1
}

TEST(Feasibility, FewerThreadsThanProcessors)
{
    using V = std::vector<uint32_t>;
    EXPECT_TRUE(threadBalanceFeasible(V{1, 1}, 3));
    EXPECT_FALSE(threadBalanceFeasible(V{2}, 3));
    EXPECT_TRUE(threadBalanceFeasible(V{}, 3));
}

TEST(Feasibility, SingleProcessorAlwaysFeasible)
{
    EXPECT_TRUE(threadBalanceFeasible({5, 3, 1}, 1));
}

/**
 * The plain depth-first bin packing the memoized oracle replaced, kept
 * as the reference: place each size (largest first) into some bin so
 * every bin is filled exactly.
 */
bool
referencePack(const std::vector<uint32_t> &sizes,
              std::vector<uint32_t> &binLeft, size_t next)
{
    if (next == sizes.size())
        return std::all_of(binLeft.begin(), binLeft.end(),
                           [](uint32_t left) { return left == 0; });
    for (size_t b = 0; b < binLeft.size(); ++b) {
        if (binLeft[b] < sizes[next])
            continue;
        binLeft[b] -= sizes[next];
        bool ok = referencePack(sizes, binLeft, next + 1);
        binLeft[b] += sizes[next];
        if (ok)
            return true;
    }
    return false;
}

bool
referenceFeasible(std::vector<uint32_t> sizes, uint32_t processors)
{
    uint32_t t = std::accumulate(sizes.begin(), sizes.end(), 0u);
    if (t == 0)
        return true;
    if (t < processors)
        return std::all_of(sizes.begin(), sizes.end(),
                           [](uint32_t s) { return s == 1; });
    if (sizes.size() < processors)
        return false;
    std::vector<uint32_t> binLeft;
    for (uint32_t b = 0; b < processors; ++b)
        binLeft.push_back(t / processors + (b < t % processors ? 1 : 0));
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    return referencePack(sizes, binLeft, 0);
}

TEST(Feasibility, MemoizedOracleMatchesPlainSearch)
{
    util::Rng rng(2024);
    int feasible = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        const uint32_t items = 1 + static_cast<uint32_t>(rng.nextBelow(12));
        const uint32_t maxSize = 1 + static_cast<uint32_t>(rng.nextBelow(5));
        std::vector<uint32_t> sizes(items);
        for (auto &s : sizes)
            s = 1 + static_cast<uint32_t>(rng.nextBelow(maxSize));
        const uint32_t p = 1 + static_cast<uint32_t>(rng.nextBelow(9));
        const bool want = referenceFeasible(sizes, p);
        feasible += want;
        ASSERT_EQ(threadBalanceFeasible(sizes, p), want)
            << "iteration " << iter << " p=" << p;
    }
    // Both answers must be well represented for the check to mean much.
    EXPECT_GT(feasible, 300);
    EXPECT_LT(feasible, 2700);
}

TEST(Feasibility, RandomInstancesAgreeWithGreedyCompletion)
{
    // Property: starting from singletons, any sequence of merges the
    // oracle permits can always be completed to a thread-balanced
    // partition.
    util::Rng rng(99);
    for (int iter = 0; iter < 50; ++iter) {
        uint32_t t = 3 + static_cast<uint32_t>(rng.nextBelow(12));
        uint32_t p = 2 + static_cast<uint32_t>(rng.nextBelow(4));
        if (p > t)
            continue;
        ClusterSet cs(t);
        ThreadBalanceConstraint constraint(t, p);
        while (cs.clusterCount() > p) {
            // Pick any permitted merge at random.
            std::vector<std::pair<size_t, size_t>> options;
            for (size_t a = 0; a < cs.clusterCount(); ++a)
                for (size_t b = a + 1; b < cs.clusterCount(); ++b)
                    if (constraint.canMerge(cs, a, b))
                        options.emplace_back(a, b);
            ASSERT_FALSE(options.empty())
                << "oracle permitted a dead-end state";
            auto [a, b] = options[rng.pickIndex(options)];
            cs.merge(a, b);
        }
        EXPECT_TRUE(cs.toPlacement(p).isThreadBalanced());
    }
}

TEST(Feasibility, CanMergeMatchesTheOracleOnEveryPair)
{
    // canMerge remembers one answer per size pair per partition; on a
    // random walk it must still agree with the plain search on every
    // pair of every partition it sees.
    util::Rng rng(31);
    for (int iter = 0; iter < 40; ++iter) {
        uint32_t t = 4 + static_cast<uint32_t>(rng.nextBelow(14));
        uint32_t p = 2 + static_cast<uint32_t>(rng.nextBelow(6));
        if (p >= t)
            continue;
        ClusterSet cs(t);
        ThreadBalanceConstraint constraint(t, p);
        while (cs.clusterCount() > p) {
            std::vector<std::pair<size_t, size_t>> options;
            for (size_t a = 0; a < cs.clusterCount(); ++a) {
                for (size_t b = a + 1; b < cs.clusterCount(); ++b) {
                    std::vector<uint32_t> sizes;
                    for (size_t c = 0; c < cs.clusterCount(); ++c)
                        if (c != a && c != b)
                            sizes.push_back(
                                static_cast<uint32_t>(cs.size(c)));
                    sizes.push_back(
                        static_cast<uint32_t>(cs.size(a) + cs.size(b)));
                    const bool ok = constraint.canMerge(cs, a, b);
                    ASSERT_EQ(ok, referenceFeasible(sizes, p))
                        << "t=" << t << " p=" << p << " pair " << a
                        << "," << b;
                    if (ok)
                        options.emplace_back(a, b);
                }
            }
            ASSERT_FALSE(options.empty());
            auto [a, b] = options[rng.pickIndex(options)];
            cs.merge(a, b);
        }
    }
}

TEST(Feasibility, LoadBalanceNeverStallsPastSixRelaxations)
{
    // Property: with any thread lengths and any sequence of permitted
    // merges, the +LB constraint always permits a merge once it has
    // relaxed at most to slack 1.35 (the sixth step from 0.10): the
    // two lightest of k > p clusters hold under twice the ideal load.
    util::Rng rng(17);
    for (int iter = 0; iter < 200; ++iter) {
        uint32_t p = 2 + static_cast<uint32_t>(rng.nextBelow(39));
        uint32_t t = p + 1 + static_cast<uint32_t>(rng.nextBelow(2 * p));
        // Equal lengths are the worst case: with t = p + 1 the first
        // merge needs slack (p - 1) / (p + 1), which takes the sixth
        // step (1.35) from p = 18 on.
        std::vector<uint64_t> lengths(t, 1000);
        if (iter % 2)
            for (auto &l : lengths)
                l = 1 + rng.nextBelow(1000000);
        ClusterSet cs(t);
        LoadBalanceConstraint constraint(lengths, p);
        constraint.track(cs);
        while (cs.clusterCount() > p) {
            std::vector<std::pair<size_t, size_t>> options;
            for (size_t a = 0; a < cs.clusterCount(); ++a)
                for (size_t b = a + 1; b < cs.clusterCount(); ++b)
                    if (constraint.canMerge(cs, a, b))
                        options.emplace_back(a, b);
            if (options.empty()) {
                ASSERT_TRUE(constraint.relax());
                ASSERT_LE(constraint.slack(), 1.35)
                    << "t=" << t << " p=" << p
                    << ": relaxed past 1.35 with no merge permitted";
                continue;
            }
            auto [a, b] = options[rng.pickIndex(options)];
            cs.merge(a, b);
        }
        EXPECT_LE(constraint.slack(), 1.35);
    }
}

// -------------------------------------------------------------- metrics

/** Build the Section 2.1.1-style matrix (threads 0..4 = paper 1..5). */
stats::PairMatrix
figure1Matrix()
{
    stats::PairMatrix m(5);
    m.set(1, 2, 10.0);  // paper's threads 2,3: highest
    m.set(0, 4, 8.0);   // paper's 1,5
    m.set(3, 4, 3.0);
    m.set(0, 3, 2.0);
    m.set(0, 1, 1.0);
    m.set(0, 2, 1.0);
    m.set(1, 3, 1.0);
    m.set(2, 3, 1.0);
    m.set(1, 4, 0.5);
    m.set(2, 4, 0.5);
    return m;
}

TEST(Metrics, PairAverageMatchesPaperCalculation)
{
    // Section 2.1.1: sharing-metric({2,3},{4}) =
    // (shared-refs(2,4) + shared-refs(3,4)) / (2*1) = (5+4)/2 = 4.5.
    stats::PairMatrix m(5);
    m.set(1, 3, 5.0);  // paper thread 2 with 4
    m.set(2, 3, 4.0);  // paper thread 3 with 4
    ClusterSet cs(5);
    cs.track(m);
    cs.merge(1, 2);  // cluster {2,3} in paper numbering
    double value = pairAverage(m, cs, 1, 2);  // vs cluster {4} (tid 3)
    EXPECT_DOUBLE_EQ(value, 4.5);
}

TEST(Metrics, CrossSumIsUnnormalized)
{
    stats::PairMatrix m(5);
    m.set(1, 3, 5.0);
    m.set(2, 3, 4.0);
    ClusterSet cs(5);
    cs.track(m);
    cs.merge(1, 2);
    EXPECT_DOUBLE_EQ(cs.crossSum(m, 1, 2), 9.0);
}

TEST(Metrics, CoherenceTrafficMetricUsesGivenMatrix)
{
    CoherenceTrafficMetric metric(figure1Matrix());
    ClusterSet cs(5);
    metric.track(cs);
    auto s = metric.score(cs, 1, 2);
    EXPECT_DOUBLE_EQ(s.primary, 10.0);
    EXPECT_EQ(metric.name(), "COHERENCE-TRAFFIC");
}

/**
 * Crafted four-thread application distinguishing the metric variants:
 *  - t0/t1 share ONE address A (6 refs total, A written by t0);
 *  - t2/t3 share TWO addresses B, C (also 6 refs total, read-only);
 *  - t0/t1 own one private address each, t2/t3 own three each.
 */
analysis::StaticAnalysis
metricFixture()
{
    trace::TraceSet set("metric-fixture");
    uint64_t A = 0x1000, B = 0x2000, C = 0x3000;

    trace::ThreadTrace t0(0);
    t0.appendStore(A);
    t0.appendLoad(A);
    t0.appendLoad(A);
    t0.appendLoad(0x10000);  // private
    trace::ThreadTrace t1(1);
    t1.appendLoad(A);
    t1.appendLoad(A);
    t1.appendLoad(A);
    t1.appendLoad(0x20000);  // private
    trace::ThreadTrace t2(2);
    t2.appendLoad(B);
    t2.appendLoad(C);
    t2.appendLoad(C);
    for (uint64_t i = 0; i < 3; ++i)
        t2.appendLoad(0x30000 + 4 * i);  // three privates
    trace::ThreadTrace t3(3);
    t3.appendLoad(B);
    t3.appendLoad(B);
    t3.appendLoad(C);
    for (uint64_t i = 0; i < 3; ++i)
        t3.appendLoad(0x40000 + 4 * i);  // three privates
    set.addThread(std::move(t0));
    set.addThread(std::move(t1));
    set.addThread(std::move(t2));
    set.addThread(std::move(t3));
    return analysis::StaticAnalysis::analyze(set);
}

TEST(Metrics, ShareRefsSeesEqualPrimaries)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    ShareRefsMetric metric(an.sharedRefs());
    metric.track(cs);
    EXPECT_DOUBLE_EQ(metric.score(cs, 0, 1).primary, 6.0);
    EXPECT_DOUBLE_EQ(metric.score(cs, 2, 3).primary, 6.0);
}

TEST(Metrics, ShareAddrPrefersDenserWorkingSet)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    ShareAddrMetric metric(an.sharedRefs(), an.sharedAddrs());
    metric.track(cs);
    auto a = metric.score(cs, 0, 1);  // 1 shared address
    auto b = metric.score(cs, 2, 3);  // 2 shared addresses
    EXPECT_DOUBLE_EQ(a.primary, b.primary);
    EXPECT_GT(a.tiebreak, b.tiebreak);
    EXPECT_TRUE(b < a);  // the tiebreak decides the ordering
}

TEST(Metrics, MinPrivPrefersFewerPrivateAddresses)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    MinPrivMetric metric(an.sharedRefs(), an.threadPrivateAddrs());
    metric.track(cs);
    auto a = metric.score(cs, 0, 1);  // 2 private addresses combined
    auto b = metric.score(cs, 2, 3);  // 6 private addresses combined
    EXPECT_DOUBLE_EQ(a.primary, b.primary);
    EXPECT_GT(a.tiebreak, b.tiebreak);
}

TEST(Metrics, MaxWritesOnlyCountsWriteSharedData)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    MaxWritesMetric metric(an.writeSharedRefs());
    metric.track(cs);
    EXPECT_DOUBLE_EQ(metric.score(cs, 0, 1).primary, 6.0);  // A written
    EXPECT_DOUBLE_EQ(metric.score(cs, 2, 3).primary, 0.0);  // read-only
}

TEST(Metrics, MinInvsUsesRawSums)
{
    auto an = metricFixture();
    MinInvsMetric raw(an.sharedRefs());
    ShareRefsMetric averaged(an.sharedRefs());
    // On singleton clusters the sum and the average agree.
    ClusterSet cs(4);
    raw.track(cs);
    EXPECT_DOUBLE_EQ(raw.score(cs, 0, 1).primary,
                     averaged.score(cs, 0, 1).primary);
    // {0,1} against {2}: the raw sum is twice the average.
    stats::PairMatrix m(3);
    m.set(0, 2, 3.0);
    m.set(1, 2, 5.0);
    MinInvsMetric rawM(m);
    ShareRefsMetric averagedM(m);
    ClusterSet merged(3);
    rawM.track(merged);
    merged.merge(0, 1);
    EXPECT_DOUBLE_EQ(rawM.score(merged, 0, 1).primary, 8.0);
    EXPECT_DOUBLE_EQ(averagedM.score(merged, 0, 1).primary, 4.0);
}

TEST(Metrics, NamesAreDistinct)
{
    auto an = metricFixture();
    const auto &refs = an.sharedRefs();
    EXPECT_EQ(ShareRefsMetric(refs).name(), "SHARE-REFS");
    EXPECT_EQ(ShareAddrMetric(refs, an.sharedAddrs()).name(),
              "SHARE-ADDR");
    EXPECT_EQ(MinPrivMetric(refs, an.threadPrivateAddrs()).name(),
              "MIN-PRIV");
    EXPECT_EQ(MinInvsMetric(refs).name(), "MIN-INVS");
    EXPECT_EQ(MaxWritesMetric(an.writeSharedRefs()).name(), "MAX-WRITES");
    EXPECT_EQ(MinShareMetric(refs).name(), "MIN-SHARE");
}

TEST(Clusterer, ObserverSeesEveryAcceptedMerge)
{
    stats::PairMatrix m(6);
    for (uint32_t a = 0; a < 6; ++a)
        for (uint32_t b = a + 1; b < 6; ++b)
            m.set(a, b, static_cast<double>(a + b));
    CoherenceTrafficMetric metric(m);
    ThreadBalanceConstraint constraint(6, 2);
    GreedyClusterer engine(metric, constraint);
    int merges = 0;
    size_t lastClusterCount = 6;
    engine.onMerge([&](const ClusterSet &cs, size_t, size_t,
                       MergeScore) {
        ++merges;
        EXPECT_EQ(cs.clusterCount(), lastClusterCount - 1);
        lastClusterCount = cs.clusterCount();
    });
    engine.run(6, 2);
    EXPECT_EQ(merges, 4);  // 6 clusters -> 2 clusters
}

TEST(Metrics, MergeScoreOrdering)
{
    MergeScore lowPrimary{1.0, 100.0};
    MergeScore highPrimary{2.0, 0.0};
    EXPECT_LT(lowPrimary, highPrimary);
    MergeScore tieA{2.0, 1.0}, tieB{2.0, 5.0};
    EXPECT_LT(tieA, tieB);
}

// -------------------------------------------------------------- clusterer

TEST(Clusterer, ReproducesFigure1Example)
{
    // 5 threads onto 2 processors; the metric drives merges
    // {2,3} (it. 1), {1,5} (it. 2), then {1,5}+{4} because {2,3}+{1,5}
    // would violate thread balance (Section 2.1.1).
    CoherenceTrafficMetric metric(figure1Matrix());
    ThreadBalanceConstraint constraint(5, 2);
    GreedyClusterer engine(metric, constraint);
    PlacementMap map = engine.run(5, 2);

    EXPECT_TRUE(map.isThreadBalanced());
    EXPECT_EQ(map.processorOf(1), map.processorOf(2));
    EXPECT_EQ(map.processorOf(0), map.processorOf(4));
    EXPECT_EQ(map.processorOf(0), map.processorOf(3));
    EXPECT_NE(map.processorOf(0), map.processorOf(1));
}

TEST(Clusterer, SkipsInfeasibleTopCandidate)
{
    // sr(0,1) dominates; after {0,1} forms, the top metric pairs are
    // {0,1}+{2} and {0,1}+{3}, both infeasible for p=2 with t=4; the
    // engine must fall through to {2,3}.
    stats::PairMatrix m(4);
    m.set(0, 1, 100.0);
    m.set(0, 2, 50.0);
    m.set(0, 3, 40.0);
    m.set(1, 2, 30.0);
    m.set(1, 3, 20.0);
    m.set(2, 3, 1.0);
    CoherenceTrafficMetric metric(m);
    ThreadBalanceConstraint constraint(4, 2);
    GreedyClusterer engine(metric, constraint);
    PlacementMap map = engine.run(4, 2);
    EXPECT_EQ(map.processorOf(0), map.processorOf(1));
    EXPECT_EQ(map.processorOf(2), map.processorOf(3));
}

TEST(Clusterer, TiesGoToTheLowestPair)
{
    // Every pair scores 0, so the tie rule alone picks each merge: the
    // lowest (a, b) the constraint permits, starting with (0, 1). 20
    // threads give 190 candidates, more than an insertion sort
    // handles, so an unstable sort would scramble the ties.
    stats::PairMatrix m(20);
    CoherenceTrafficMetric metric(m);
    ThreadBalanceConstraint constraint(20, 10);
    GreedyClusterer engine(metric, constraint);
    std::vector<std::pair<size_t, size_t>> merges;
    engine.onMerge([&](const ClusterSet &, size_t a, size_t b,
                       MergeScore) { merges.emplace_back(a, b); });
    PlacementMap map = engine.run(20, 10);
    ASSERT_EQ(merges.size(), 10u);
    for (size_t c = 0; c < 10; ++c) {
        EXPECT_EQ(merges[c], std::make_pair(c, c + 1)) << "merge " << c;
        EXPECT_EQ(map.processorOf(static_cast<uint32_t>(2 * c)), c);
        EXPECT_EQ(map.processorOf(static_cast<uint32_t>(2 * c + 1)), c);
    }
}

TEST(Clusterer, TrivialWhenThreadsFitProcessors)
{
    stats::PairMatrix m(3);
    CoherenceTrafficMetric metric(m);
    ThreadBalanceConstraint constraint(3, 4);
    GreedyClusterer engine(metric, constraint);
    PlacementMap map = engine.run(3, 4);
    EXPECT_EQ(map.threadCount(), 3u);
    std::set<uint32_t> procs(map.assignment().begin(),
                             map.assignment().end());
    EXPECT_EQ(procs.size(), 3u);  // one thread per processor
}

/** Constraint that forbids one specific cluster composition. */
class VetoConstraint : public BalanceConstraint
{
  public:
    bool
    canMerge(const ClusterSet &cs, size_t a, size_t b) const override
    {
        // Forbid merging the exact cluster {0,1} with anything.
        auto is01 = [&](size_t c) {
            return cs.members(c) == std::vector<uint32_t>{0, 1};
        };
        return !is01(a) && !is01(b);
    }
};

TEST(Clusterer, UnrelaxableDeadEndIsFatal)
{
    // Metric prefers {0,1} first, but the constraint forbids growing
    // that cluster and cannot relax: the engine does not backtrack
    // (no built-in constraint reaches a dead end), so it gives up.
    stats::PairMatrix m(3);
    m.set(0, 1, 10.0);
    m.set(0, 2, 5.0);
    m.set(1, 2, 1.0);
    CoherenceTrafficMetric metric(m);
    VetoConstraint constraint;
    GreedyClusterer engine(metric, constraint);
    EXPECT_THROW(engine.run(3, 1), util::FatalError);
}

TEST(Clusterer, LoadBalanceConstraintRelaxesWhenStuck)
{
    // Three equal threads onto two processors: any merge yields 133%
    // of the ideal load, so the 10% slack is impossible and the
    // constraint must relax rather than deadlock.
    stats::PairMatrix m(3);
    m.set(0, 1, 5.0);
    m.set(1, 2, 4.0);
    CoherenceTrafficMetric metric(m);
    std::vector<uint64_t> lengths{40000, 40000, 40000};
    LoadBalanceConstraint constraint(lengths, 2);
    GreedyClusterer engine(metric, constraint);
    PlacementMap map = engine.run(3, 2);
    EXPECT_EQ(map.processors(), 2u);
    EXPECT_GT(constraint.slack(), 0.10);
}

// ------------------------------------------- engine vs. the reference

/** One accepted merge as an observer sees it. */
struct Merge
{
    size_t a;
    size_t b;
    MergeScore score;

    bool
    operator==(const Merge &o) const
    {
        return a == o.a && b == o.b &&
               score.primary == o.score.primary &&
               score.tiebreak == o.score.tiebreak;
    }
};

std::ostream &
operator<<(std::ostream &os, const Merge &m)
{
    return os << "(" << m.a << "," << m.b << " | " << m.score.primary
              << "," << m.score.tiebreak << ")";
}

using MemberScore = std::function<MergeScore(
    const std::vector<uint32_t> &, const std::vector<uint32_t> &)>;

/**
 * The engine before it kept sums, as the reference: each step rescores
 * every pair from its members, stable-sorts the candidates (ties keep
 * (a, b) order) and merges the first the constraint permits.
 */
PlacementMap
referenceRun(const MemberScore &score, BalanceConstraint &constraint,
             uint32_t threads, uint32_t processors,
             std::vector<Merge> &merges)
{
    ClusterSet cs(threads);
    if (cs.clusterCount() <= processors)
        return cs.toPlacement(processors);
    constraint.track(cs);
    while (cs.clusterCount() > processors) {
        std::vector<Merge> candidates;
        for (size_t a = 0; a < cs.clusterCount(); ++a)
            for (size_t b = a + 1; b < cs.clusterCount(); ++b)
                candidates.push_back(
                    {a, b, score(cs.members(a), cs.members(b))});
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Merge &x, const Merge &y) {
                             return y.score < x.score;
                         });
        bool merged = false;
        for (const Merge &cand : candidates) {
            if (!constraint.canMerge(cs, cand.a, cand.b))
                continue;
            cs.merge(cand.a, cand.b);
            merges.push_back(cand);
            merged = true;
            break;
        }
        if (!merged && !constraint.relax())
            throw util::FatalError("reference engine stalled");
    }
    return cs.toPlacement(processors);
}

/** Inputs every metric reads: three pair matrices, two vectors. */
struct MetricInputs
{
    stats::PairMatrix refs, addrs, writes;
    std::vector<uint64_t> priv, lengths;
};

/**
 * Random inputs over @p t threads. Small ranges make ties common;
 * @p dyadic halves every matrix entry (0.5 steps, like figure1Matrix).
 */
MetricInputs
randomInputs(util::Rng &rng, uint32_t t, bool dyadic, bool equalLengths)
{
    MetricInputs in{stats::PairMatrix(t), stats::PairMatrix(t),
                    stats::PairMatrix(t), std::vector<uint64_t>(t),
                    std::vector<uint64_t>(t, 1000)};
    const double unit = dyadic ? 0.5 : 1.0;
    for (uint32_t i = 0; i < t; ++i) {
        for (uint32_t j = i + 1; j < t; ++j) {
            in.refs.set(i, j, unit * static_cast<double>(rng.nextBelow(4)));
            in.addrs.set(i, j, unit * static_cast<double>(rng.nextBelow(4)));
            in.writes.set(i, j,
                          unit * static_cast<double>(rng.nextBelow(4)));
        }
        in.priv[i] = rng.nextBelow(4);
        if (!equalLengths)
            in.lengths[i] = 1 + rng.nextBelow(4);
    }
    return in;
}

/** The metrics of Section 2 plus COHERENCE, by name. */
const std::vector<std::string> &
metricNames()
{
    static const std::vector<std::string> names = {
        "SHARE-REFS", "SHARE-ADDR", "MIN-PRIV", "MIN-INVS",
        "MAX-WRITES", "MIN-SHARE", "COHERENCE-TRAFFIC"};
    return names;
}

std::unique_ptr<SharingMetric>
metricNamed(const std::string &name, const MetricInputs &in)
{
    if (name == "SHARE-REFS")
        return std::make_unique<ShareRefsMetric>(in.refs);
    if (name == "SHARE-ADDR")
        return std::make_unique<ShareAddrMetric>(in.refs, in.addrs);
    if (name == "MIN-PRIV")
        return std::make_unique<MinPrivMetric>(in.refs, in.priv);
    if (name == "MIN-INVS")
        return std::make_unique<MinInvsMetric>(in.refs);
    if (name == "MAX-WRITES")
        return std::make_unique<MaxWritesMetric>(in.writes);
    if (name == "MIN-SHARE")
        return std::make_unique<MinShareMetric>(in.refs);
    return std::make_unique<CoherenceTrafficMetric>(in.writes);
}

/** The same metric, scored from members as the old engine did. */
MemberScore
memberScoreNamed(const std::string &name, const MetricInputs &in)
{
    auto average = [](const stats::PairMatrix &m,
                      const std::vector<uint32_t> &a,
                      const std::vector<uint32_t> &b) {
        return m.crossSum(a, b) / (static_cast<double>(a.size()) *
                                   static_cast<double>(b.size()));
    };
    return [=, &in](const std::vector<uint32_t> &a,
                    const std::vector<uint32_t> &b) -> MergeScore {
        if (name == "SHARE-ADDR")
            return {average(in.refs, a, b), -average(in.addrs, a, b)};
        if (name == "MIN-PRIV") {
            double priv = 0.0;
            for (uint32_t tid : a)
                priv += static_cast<double>(in.priv[tid]);
            for (uint32_t tid : b)
                priv += static_cast<double>(in.priv[tid]);
            return {average(in.refs, a, b), -priv};
        }
        if (name == "MIN-INVS")
            return {in.refs.crossSum(a, b), 0.0};
        if (name == "MAX-WRITES" || name == "COHERENCE-TRAFFIC")
            return {average(in.writes, a, b), 0.0};
        if (name == "MIN-SHARE")
            return {-average(in.refs, a, b), 0.0};
        return {average(in.refs, a, b), 0.0};
    };
}

/**
 * Run both engines on one case and require identical merge streams.
 * Returns whether the +LB constraint had to relax.
 */
bool
expectSameAsReference(const std::string &metric, const MetricInputs &in,
                      bool loadBalance, uint32_t t, uint32_t p)
{
    SCOPED_TRACE(metric + (loadBalance ? "+LB" : "") +
                 " t=" + std::to_string(t) + " p=" + std::to_string(p));
    auto makeConstraint = [&]() -> std::unique_ptr<BalanceConstraint> {
        if (loadBalance)
            return std::make_unique<LoadBalanceConstraint>(in.lengths, p);
        return std::make_unique<ThreadBalanceConstraint>(t, p);
    };

    std::vector<Merge> want;
    auto refConstraint = makeConstraint();
    PlacementMap wantMap = referenceRun(memberScoreNamed(metric, in),
                                        *refConstraint, t, p, want);

    std::vector<Merge> got;
    auto m = metricNamed(metric, in);
    auto constraint = makeConstraint();
    GreedyClusterer engine(*m, *constraint);
    engine.onMerge([&](const ClusterSet &, size_t a, size_t b,
                       MergeScore s) { got.push_back({a, b, s}); });
    PlacementMap gotMap = engine.run(t, p);

    EXPECT_EQ(got, want);
    EXPECT_EQ(gotMap.assignment(), wantMap.assignment());
    return loadBalance &&
           static_cast<LoadBalanceConstraint &>(*constraint).slack() > 0.10;
}

TEST(ClustererDifferential, MatchesTheRescoringEngineOnRandomInputs)
{
    // Every metric, both constraints, 2-40 threads onto 1..T
    // processors (divisors and non-divisors), integer entries 0-3.
    // +LB alternates equal lengths, which force relax() stalls, with
    // small random ones.
    util::Rng rng(4242);
    int relaxed = 0;
    for (uint32_t t = 2; t <= 40; ++t) {
        std::set<uint32_t> procs = {1, t, 1 + (t - 1) / 3,
                                    1 + static_cast<uint32_t>(
                                            rng.nextBelow(t))};
        for (uint32_t p : procs) {
            const bool equal = (t + p) % 2 == 0;
            const MetricInputs in = randomInputs(rng, t, false, equal);
            for (const std::string &metric : metricNames()) {
                expectSameAsReference(metric, in, false, t, p);
                relaxed += expectSameAsReference(metric, in, true, t, p);
            }
        }
    }
    EXPECT_GT(relaxed, 100) << "the +LB stall path went unexercised";
}

TEST(ClustererDifferential, MatchesTheRescoringEngineOnDyadicInputs)
{
    // Half-integer entries, like figure1Matrix's 0.5s: sums stay exact.
    util::Rng rng(77);
    for (uint32_t t : {5u, 12u, 23u, 31u}) {
        for (uint32_t p : {2u, 3u, 7u}) {
            const MetricInputs in = randomInputs(rng, t, true, true);
            for (const std::string &metric : metricNames()) {
                expectSameAsReference(metric, in, false, t, p);
                expectSameAsReference(metric, in, true, t, p);
            }
        }
    }
    for (uint32_t p : {1u, 2u, 3u, 4u}) {
        MetricInputs in{figure1Matrix(), figure1Matrix(), figure1Matrix(),
                        std::vector<uint64_t>(5, 1),
                        std::vector<uint64_t>(5, 7)};
        for (const std::string &metric : metricNames()) {
            expectSameAsReference(metric, in, false, 5, p);
            expectSameAsReference(metric, in, true, 5, p);
        }
    }
}

// ------------------------------------------------------------- LOAD-BAL

TEST(LoadBalance, KnownInstanceReachesOptimum)
{
    std::vector<uint64_t> lengths{7, 6, 5, 4, 3};
    PlacementMap map = loadBalancedPlacement(lengths, 2);
    auto loads = map.processorLoads(lengths);
    uint64_t peak = std::max(loads[0], loads[1]);
    EXPECT_EQ(peak, 13u);  // optimum: {7,6} vs {5,4,3}
}

TEST(LoadBalance, LowerBoundHolds)
{
    std::vector<uint64_t> lengths{10, 1, 1, 1};
    EXPECT_EQ(loadBalanceLowerBound(lengths, 2), 10u);
    EXPECT_EQ(loadBalanceLowerBound(lengths, 13), 10u);
    std::vector<uint64_t> even{3, 3, 3, 3};
    EXPECT_EQ(loadBalanceLowerBound(even, 2), 6u);
}

TEST(LoadBalance, EmptyAndSingleThread)
{
    EXPECT_EQ(loadBalancedPlacement({}, 3).threadCount(), 0u);
    PlacementMap one = loadBalancedPlacement({42}, 3);
    EXPECT_EQ(one.threadCount(), 1u);
}

class LoadBalanceProperty : public ::testing::TestWithParam<int>
{};

TEST_P(LoadBalanceProperty, WithinLPTBoundOfLowerBound)
{
    util::Rng rng(1000 + GetParam());
    uint32_t t = 4 + static_cast<uint32_t>(rng.nextBelow(40));
    uint32_t p = 2 + static_cast<uint32_t>(rng.nextBelow(15));
    std::vector<uint64_t> lengths(t);
    for (auto &l : lengths)
        l = 1 + rng.nextBelow(100000);

    PlacementMap map = loadBalancedPlacement(lengths, p);
    auto loads = map.processorLoads(lengths);
    uint64_t peak = *std::max_element(loads.begin(), loads.end());
    uint64_t lb = loadBalanceLowerBound(lengths, p);
    // LPT guarantee: 4/3 - 1/(3p); the refinement only improves it.
    EXPECT_LE(static_cast<double>(peak),
              static_cast<double>(lb) * (4.0 / 3.0) + 1.0);
    // Conservation: loads sum to the total work.
    EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), uint64_t{0}),
              std::accumulate(lengths.begin(), lengths.end(),
                              uint64_t{0}));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LoadBalanceProperty,
                         ::testing::Range(0, 25));

// --------------------------------------------------------------- RANDOM

class RandomPlacementProperty
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>>
{};

TEST_P(RandomPlacementProperty, AlwaysThreadBalanced)
{
    auto [t, p] = GetParam();
    util::Rng rng(7 * t + p);
    for (int i = 0; i < 10; ++i) {
        PlacementMap map = randomPlacement(t, p, rng);
        EXPECT_TRUE(map.isThreadBalanced()) << "t=" << t << " p=" << p;
        EXPECT_EQ(map.threadCount(), t);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomPlacementProperty,
    ::testing::Values(std::make_pair(4u, 2u), std::make_pair(5u, 2u),
                      std::make_pair(9u, 4u), std::make_pair(16u, 16u),
                      std::make_pair(127u, 16u),
                      std::make_pair(3u, 8u)));

TEST(RandomPlacement, DifferentSeedsGiveDifferentMaps)
{
    util::Rng a(1), b(2);
    auto m1 = randomPlacement(16, 4, a);
    auto m2 = randomPlacement(16, 4, b);
    EXPECT_NE(m1.assignment(), m2.assignment());
}

// -------------------------------------------------------------- registry

TEST(Algorithms, NamesRoundTripAndAreUnique)
{
    std::set<std::string> names;
    for (Algorithm alg : allAlgorithms()) {
        std::string name = algorithmName(alg);
        EXPECT_TRUE(names.insert(name).second) << name;
        auto back = algorithmFromName(name);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, alg);
    }
    EXPECT_FALSE(algorithmFromName("NOT-AN-ALGORITHM").has_value());
}

TEST(Algorithms, ClassificationFlags)
{
    EXPECT_FALSE(isSharingBased(Algorithm::LoadBal));
    EXPECT_FALSE(isSharingBased(Algorithm::Random));
    EXPECT_TRUE(isSharingBased(Algorithm::ShareRefs));
    EXPECT_TRUE(isSharingBased(Algorithm::CoherenceTraffic));
    EXPECT_TRUE(hasLoadBalanceCriterion(Algorithm::ShareRefsLB));
    EXPECT_TRUE(hasLoadBalanceCriterion(Algorithm::LoadBal));
    EXPECT_FALSE(hasLoadBalanceCriterion(Algorithm::ShareRefs));
    EXPECT_TRUE(needsCoherenceMatrix(Algorithm::CoherenceTraffic));
    EXPECT_FALSE(needsCoherenceMatrix(Algorithm::MaxWrites));
    EXPECT_EQ(staticSharingAlgorithms().size(), 6u);
}

/** A small generated application for end-to-end placement checks. */
const analysis::StaticAnalysis &
smallAppAnalysis()
{
    static const analysis::StaticAnalysis an = [] {
        workload::AppProfile p;
        p.name = "small";
        p.threads = 8;
        p.meanLength = 20000;
        p.lengthDevPct = 40.0;
        p.sharedRefFrac = 0.6;
        p.refsPerSharedAddr = 12.0;
        p.globalFrac = 0.7;
        p.neighborFrac = 0.3;
        p.seed = 5;
        auto traces = workload::generateTraces(p, 1);
        return analysis::StaticAnalysis::analyze(traces);
    }();
    return an;
}

class AllAlgorithmsPlace
    : public ::testing::TestWithParam<Algorithm>
{};

TEST_P(AllAlgorithmsPlace, ProducesValidCompletePlacement)
{
    Algorithm alg = GetParam();
    const auto &an = smallAppAnalysis();
    util::Rng rng(123);

    stats::PairMatrix coherence(an.threadCount());
    // A synthetic coherence matrix is fine for placement validity.
    for (size_t i = 0; i < an.threadCount(); ++i)
        for (size_t j = i + 1; j < an.threadCount(); ++j)
            coherence.set(i, j, static_cast<double>(i + j));

    for (uint32_t p : {2u, 4u, 8u}) {
        PlacementMap map = place(alg, an, p, rng, &coherence);
        EXPECT_EQ(map.threadCount(), an.threadCount());
        EXPECT_EQ(map.processors(), p);
        if (!hasLoadBalanceCriterion(alg)) {
            EXPECT_TRUE(map.isThreadBalanced())
                << algorithmName(alg) << " p=" << p;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Registry, AllAlgorithmsPlace,
                         ::testing::ValuesIn(allAlgorithms()),
                         [](const auto &info) {
                             std::string n = algorithmName(info.param);
                             std::string out;
                             for (char c : n)
                                 if (std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     out.push_back(c);
                             return out;
                         });

TEST(Algorithms, CoherenceWithoutMatrixIsFatal)
{
    const auto &an = smallAppAnalysis();
    util::Rng rng(1);
    EXPECT_THROW(place(Algorithm::CoherenceTraffic, an, 2, rng, nullptr),
                 util::FatalError);
}

TEST(Algorithms, LoadBalBeatsRandomOnImbalance)
{
    const auto &an = smallAppAnalysis();
    util::Rng rng(77);
    PlacementMap lb = place(Algorithm::LoadBal, an, 4, rng);
    PlacementMap random = place(Algorithm::Random, an, 4, rng);
    EXPECT_LE(lb.loadImbalance(an.threadLength()),
              random.loadImbalance(an.threadLength()) + 1e-9);
}

TEST(Algorithms, MinShareInvertsShareRefsPreference)
{
    // On a matrix with one dominant pair, SHARE-REFS co-locates it and
    // MIN-SHARE separates it.
    stats::PairMatrix m(4);
    m.set(0, 1, 100.0);
    m.set(0, 2, 1.0);
    m.set(0, 3, 2.0);
    m.set(1, 2, 2.0);
    m.set(1, 3, 1.0);
    m.set(2, 3, 3.0);

    ClusterSet cs(4);
    CoherenceTrafficMetric share(m);
    share.track(cs);
    EXPECT_GT(share.score(cs, 0, 1).primary,
              share.score(cs, 2, 3).primary);
}

} // namespace
} // namespace tsp::placement
