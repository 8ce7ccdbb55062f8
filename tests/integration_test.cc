/**
 * @file
 * End-to-end integration tests asserting the paper's headline *shapes*
 * on generated workloads at reduced scale:
 *
 *  1. LOAD-BAL beats RANDOM substantially on high thread-length
 *     deviation applications (Figures 2, 3).
 *  2. Compulsory + invalidation misses are insensitive to the
 *     placement algorithm (Section 4.2, Figure 5).
 *  3. The 8 MB cache eliminates conflict misses, and sharing-based
 *     placement still does not beat LOAD-BAL by more than a whisker
 *     (Section 4.3, Table 5).
 *  4. Dynamic coherence traffic is orders of magnitude below static
 *     shared-reference counts (Table 4).
 */

#include <gtest/gtest.h>

#include "experiment/lab.h"
#include "experiment/studies.h"
#include "sim/results.h"

namespace tsp::experiment {
namespace {

using placement::Algorithm;
using workload::AppId;

constexpr uint32_t kScale = 16;

TEST(PaperShapes, LoadBalancingBeatsRandomOnFFT)
{
    // FFT has the largest thread-length deviation (187.6%); the paper
    // reports LOAD-BAL 13-56% faster than RANDOM.
    Lab lab(kScale);
    auto points = execTimeStudy(lab, AppId::FFT,
                                {Algorithm::LoadBal});
    ASSERT_FALSE(points.empty());
    bool everMuchFaster = false;
    for (const auto &pt : points) {
        EXPECT_LT(pt.normalizedToRandom, 1.05)
            << "LOAD-BAL slower than RANDOM at " << pt.point.label();
        everMuchFaster |= pt.normalizedToRandom < 0.9;
    }
    EXPECT_TRUE(everMuchFaster)
        << "LOAD-BAL never gained >10% over RANDOM on FFT";
}

TEST(PaperShapes, SharingPlacementDoesNotBeatLoadBalance)
{
    Lab lab(kScale);
    auto points = execTimeStudy(
        lab, AppId::FFT,
        {Algorithm::LoadBal, Algorithm::ShareRefs, Algorithm::MaxWrites});
    double loadBalBest = 1e18;
    double sharingBest = 1e18;
    for (const auto &pt : points) {
        double v = pt.normalizedToRandom;
        if (pt.alg == Algorithm::LoadBal)
            loadBalBest = std::min(loadBalBest, v);
        else
            sharingBest = std::min(sharingBest, v);
    }
    EXPECT_LE(loadBalBest, sharingBest + 0.02);
}

TEST(PaperShapes, CompulsoryAndInvalidationMissesAreInvariant)
{
    // Across placement algorithms at a fixed machine point, the
    // compulsory + invalidation miss component stays within a tight
    // band (the paper: "fairly constant across all placement
    // algorithms").
    Lab lab(kScale);
    auto rows = execTimeStudy(
        lab, AppId::Water,
        {Algorithm::Random, Algorithm::ShareRefs, Algorithm::MinShare,
         Algorithm::LoadBal});

    // Group rows by machine point. "Fairly constant" means the spread
    // between placement algorithms is a negligible share of the total
    // reference stream (absolute counts are small, so ratios between
    // them are noisy even in the paper's own data).
    std::map<std::string, std::vector<double>> byPoint;
    uint64_t refs = rows.front().refs;
    for (const auto &row : rows) {
        byPoint[row.point.label()].push_back(
            static_cast<double>(row.compulsory + row.invalidation));
    }
    for (const auto &[label, values] : byPoint) {
        double lo = *std::min_element(values.begin(), values.end());
        double hi = *std::max_element(values.begin(), values.end());
        ASSERT_GT(lo, 0.0);
        EXPECT_LT((hi - lo) / static_cast<double>(refs), 0.005)
            << "compulsory+invalidation varied too much at " << label;
        EXPECT_LT(hi / lo, 3.0) << label;
    }
}

TEST(PaperShapes, ConflictMissesShiftInterToIntra)
{
    // With fewer threads per processor the cache is effectively larger
    // and conflicts shift from inter-thread to intra-thread (Fig 5).
    Lab lab(kScale);
    auto rows =
        execTimeStudy(lab, AppId::Water, {Algorithm::Random});
    ASSERT_GE(rows.size(), 2u);
    const auto &manyThreads = rows.front();  // 2 processors
    const auto &fewThreads = rows.back();    // most processors
    double interShareMany =
        static_cast<double>(manyThreads.interConflict) /
        static_cast<double>(manyThreads.totalMisses());
    double interShareFew =
        static_cast<double>(fewThreads.interConflict) /
        static_cast<double>(fewThreads.totalMisses());
    EXPECT_GT(interShareMany, interShareFew);
}

TEST(PaperShapes, InfiniteCacheKillsConflictMisses)
{
    Lab lab(kScale);
    MachinePoint pt{4, 2};
    auto result =
        lab.run(AppId::Water, Algorithm::Random, pt, /*infinite=*/true);
    EXPECT_EQ(result.stats.totalMissCount(sim::MissKind::IntraConflict),
              0u);
    EXPECT_EQ(result.stats.totalMissCount(sim::MissKind::InterConflict),
              0u);
    EXPECT_GT(result.stats.totalMissCount(sim::MissKind::Compulsory),
              0u);
}

TEST(PaperShapes, StaticDwarfsDynamicSharingOnWholeSuite)
{
    // Table 4's gap, checked on one coarse and one medium app.
    Lab lab(kScale);
    for (AppId app : {AppId::MP3D, AppId::Grav}) {
        auto row = table4Row(lab, app);
        EXPECT_GT(row.staticOverDynamic, 5.0)
            << row.app << ": static " << row.staticTotal << " dynamic "
            << row.dynamicTotal;
        EXPECT_LT(row.dynamicPctOfRefs, 5.0) << row.app;
    }
}

TEST(PaperShapes, Table5SharingNeverBeatsLoadBalMeaningfully)
{
    Lab lab(kScale);
    for (const auto &cell : table5Study(lab, AppId::Water)) {
        // The paper: sharing-based wins are at most ~2%; we allow a
        // slightly wider band for the scaled workload.
        EXPECT_GT(cell.bestStaticVsLoadBal, 0.90)
            << "sharing-based placement beat LOAD-BAL by >10% at "
            << cell.processors << " processors";
    }
}

TEST(PaperShapes, ExecutionTimeScalesDownWithProcessors)
{
    // Sanity: more processors should not slow the application down.
    Lab lab(kScale);
    auto points =
        execTimeStudy(lab, AppId::BarnesHut, {Algorithm::LoadBal});
    ASSERT_GE(points.size(), 2u);
    EXPECT_LT(points.back().cycles, points.front().cycles);
}

} // namespace
} // namespace tsp::experiment
