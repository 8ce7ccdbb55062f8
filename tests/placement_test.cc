/**
 * @file
 * Tests for the paper's core contribution: the placement algorithms.
 * Includes a reproduction of the Section 2.1.1 worked example, the
 * sharing-metric normalization (the "4.5" calculation), balance
 * constraints with the exact feasibility oracle, the +LB slack
 * relaxation that replaces the paper's backtracking, LOAD-BAL quality
 * bounds and the algorithm registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
    cs.merge(1, 2);  // cluster {2,3} in paper numbering
    double value = pairAverage(m, cs, 1, 2);  // vs cluster {4} (tid 3)
    EXPECT_DOUBLE_EQ(value, 4.5);
}

TEST(Metrics, PairSumIsUnnormalized)
{
    stats::PairMatrix m(5);
    m.set(1, 3, 5.0);
    m.set(2, 3, 4.0);
    ClusterSet cs(5);
    cs.merge(1, 2);
    EXPECT_DOUBLE_EQ(pairSum(m, cs, 1, 2), 9.0);
}

TEST(Metrics, CoherenceTrafficMetricUsesGivenMatrix)
{
    CoherenceTrafficMetric metric(figure1Matrix());
    ClusterSet cs(5);
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
    ShareRefsMetric metric(an);
    EXPECT_DOUBLE_EQ(metric.score(cs, 0, 1).primary, 6.0);
    EXPECT_DOUBLE_EQ(metric.score(cs, 2, 3).primary, 6.0);
}

TEST(Metrics, ShareAddrPrefersDenserWorkingSet)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    ShareAddrMetric metric(an);
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
    MinPrivMetric metric(an);
    auto a = metric.score(cs, 0, 1);  // 2 private addresses combined
    auto b = metric.score(cs, 2, 3);  // 6 private addresses combined
    EXPECT_DOUBLE_EQ(a.primary, b.primary);
    EXPECT_GT(a.tiebreak, b.tiebreak);
}

TEST(Metrics, MaxWritesOnlyCountsWriteSharedData)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    MaxWritesMetric metric(an);
    EXPECT_DOUBLE_EQ(metric.score(cs, 0, 1).primary, 6.0);  // A written
    EXPECT_DOUBLE_EQ(metric.score(cs, 2, 3).primary, 0.0);  // read-only
}

TEST(Metrics, MinInvsUsesRawSums)
{
    auto an = metricFixture();
    ClusterSet cs(4);
    cs.merge(0, 1);  // cluster sizes 2 and 1
    MinInvsMetric raw(an);
    ShareRefsMetric averaged(an);
    // Cross sharing between {0,1} and {2} is zero in the fixture; add
    // a synthetic comparison instead on singleton clusters.
    ClusterSet fresh(4);
    EXPECT_DOUBLE_EQ(raw.score(fresh, 0, 1).primary,
                     averaged.score(fresh, 0, 1).primary);
}

TEST(Metrics, NamesAreDistinct)
{
    auto an = metricFixture();
    EXPECT_EQ(ShareRefsMetric(an).name(), "SHARE-REFS");
    EXPECT_EQ(ShareAddrMetric(an).name(), "SHARE-ADDR");
    EXPECT_EQ(MinPrivMetric(an).name(), "MIN-PRIV");
    EXPECT_EQ(MinInvsMetric(an).name(), "MIN-INVS");
    EXPECT_EQ(MaxWritesMetric(an).name(), "MAX-WRITES");
    EXPECT_EQ(MinShareMetric(an).name(), "MIN-SHARE");
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
    EXPECT_GT(share.score(cs, 0, 1).primary,
              share.score(cs, 2, 3).primary);
}

} // namespace
} // namespace tsp::placement
