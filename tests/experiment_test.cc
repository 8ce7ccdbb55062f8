/**
 * @file
 * Tests of the experiment harness: machine-point sweeps, Lab
 * memoization and determinism, and the per-figure/table drivers at
 * small workload scale.
 */

#include <gtest/gtest.h>

#include "experiment/configs.h"
#include "experiment/lab.h"
#include "experiment/outcome.h"
#include "experiment/studies.h"

namespace tsp::experiment {
namespace {

using placement::Algorithm;
using workload::AppId;

// --------------------------------------------------------------- outcome

TEST(Outcome, DefaultStateIsADescriptivePoison)
{
    // A defaulted Outcome is the "cell never ran" poison: it must
    // explain itself instead of carrying an empty error string, so a
    // crash/cancellation hole in a sweep is actionable from the report.
    Outcome<int> poisoned;
    EXPECT_FALSE(poisoned.ok());
    EXPECT_NE(poisoned.error().find("job never ran"),
              std::string::npos);
    EXPECT_NE(poisoned.error().find("sweep ended"), std::string::npos);
}

TEST(Outcome, SuccessAndFailureArmsAreExclusive)
{
    auto good = Outcome<int>::success(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_THROW(good.error(), util::PanicError);

    auto bad = Outcome<int>::failure("disk on fire");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error(), "disk on fire");
    EXPECT_THROW(bad.value(), util::PanicError);
}

// ----------------------------------------------------------------- sweep

TEST(Configs, SweepCoversPaperProcessorCounts)
{
    auto points = standardSweep(32);
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[0].processors, 2u);
    EXPECT_EQ(points[0].contexts, 16u);
    EXPECT_EQ(points[3].processors, 16u);
    EXPECT_EQ(points[3].contexts, 2u);
}

TEST(Configs, SweepStopsAtThreadCount)
{
    auto points = standardSweep(8);
    ASSERT_EQ(points.size(), 3u);  // 2, 4, 8
    EXPECT_EQ(points.back().processors, 8u);
    EXPECT_EQ(points.back().contexts, 1u);
}

TEST(Configs, ContextsAlwaysHoldAllThreads)
{
    for (uint32_t t : {5u, 10u, 127u}) {
        for (const auto &pt : standardSweep(t))
            EXPECT_GE(pt.processors * pt.contexts, t);
    }
}

TEST(Configs, LabelIsHumanReadable)
{
    MachinePoint pt{4, 3};
    EXPECT_EQ(pt.label(), "4p x 3c");
}

// ------------------------------------------------------------------- lab

TEST(Lab, MemoizesAnalysesAndTraces)
{
    Lab lab(64);
    const auto &t1 = lab.traces(AppId::Water);
    const auto &t2 = lab.traces(AppId::Water);
    EXPECT_EQ(&t1, &t2);
    const auto &a1 = lab.analysis(AppId::Water);
    const auto &a2 = lab.analysis(AppId::Water);
    EXPECT_EQ(&a1, &a2);
}

TEST(Lab, ConfigUsesPaperCacheSizes)
{
    Lab lab(1);
    MachinePoint pt{2, 4};
    auto cfg = lab.configFor(AppId::Water, pt);
    EXPECT_EQ(cfg.cacheBytes, 32u * 1024);
    EXPECT_EQ(cfg.processors, 2u);
    EXPECT_EQ(cfg.contexts, 4u);
    auto inf = lab.configFor(AppId::Water, pt, true);
    EXPECT_EQ(inf.cacheBytes, 8ull * 1024 * 1024);
}

TEST(Lab, RunsAreDeterministic)
{
    Lab lab(64);
    MachinePoint pt{2, 4};
    auto a = lab.run(AppId::Water, Algorithm::Random, pt);
    auto b = lab.run(AppId::Water, Algorithm::Random, pt);
    EXPECT_EQ(a.executionTime, b.executionTime);
    EXPECT_EQ(a.placement.assignment(), b.placement.assignment());
}

TEST(Lab, PlacementsCoverAllThreads)
{
    Lab lab(64);
    auto map = lab.placementFor(AppId::BarnesHut, Algorithm::ShareRefs,
                                4);
    EXPECT_EQ(map.threadCount(), 8u);
    EXPECT_TRUE(map.isThreadBalanced());
}

TEST(Lab, CoherenceMatrixHasThreadDimension)
{
    Lab lab(64);
    const auto &m = lab.coherenceMatrix(AppId::Water);
    EXPECT_EQ(m.size(), 8u);
}

// --------------------------------------------------------------- studies

TEST(Studies, ExecTimeStudyNormalizesRandomToOne)
{
    Lab lab(64);
    auto points = execTimeStudy(lab, AppId::Water,
                                {Algorithm::Random, Algorithm::LoadBal});
    ASSERT_FALSE(points.empty());
    for (const auto &pt : points) {
        EXPECT_GT(pt.cycles, 0u);
        if (pt.alg == Algorithm::Random)
            EXPECT_DOUBLE_EQ(pt.normalizedToRandom, 1.0);
        else
            EXPECT_GT(pt.normalizedToRandom, 0.0);
    }
}

TEST(Studies, MissComponentsAddUp)
{
    Lab lab(64);
    auto rows = execTimeStudy(
        lab, AppId::Water, {Algorithm::Random, Algorithm::ShareRefs});
    ASSERT_FALSE(rows.empty());
    for (const auto &row : rows) {
        EXPECT_GT(row.refs, 0u);
        EXPECT_LE(row.totalMisses(), row.refs);
    }
}

TEST(Studies, Table4RowHasTheRightShape)
{
    Lab lab(32);
    auto row = table4Row(lab, AppId::Water);
    EXPECT_EQ(row.app, "Water");
    EXPECT_GT(row.staticTotal, 0.0);
    EXPECT_GT(row.staticPctOfRefs, 0.0);
    EXPECT_GE(row.dynamicTotal, 0.0);
    // The headline result: static >> dynamic.
    EXPECT_GT(row.staticOverDynamic, 1.0);
    EXPECT_LT(row.dynamicPctOfRefs, row.staticPctOfRefs);
}

TEST(Studies, Table5CellsCoverSweep)
{
    Lab lab(64);
    auto cells = table5Study(lab, AppId::Water);
    ASSERT_EQ(cells.size(), standardSweep(8).size());
    for (const auto &cell : cells) {
        EXPECT_GT(cell.bestStaticVsLoadBal, 0.0);
        EXPECT_GT(cell.coherenceVsLoadBal, 0.0);
        // Sanity: nothing is an order of magnitude off LOAD-BAL.
        EXPECT_LT(cell.bestStaticVsLoadBal, 5.0);
        EXPECT_LT(cell.coherenceVsLoadBal, 5.0);
    }
}

TEST(Studies, Table5BestStaticComesFromTheFullPool)
{
    // The "best static sharing algorithm" pool must include the +LB
    // variants (twelve algorithms).
    EXPECT_EQ(placement::staticSharingAlgorithmsWithLB().size(), 12u);
    for (Algorithm alg : placement::staticSharingAlgorithms()) {
        auto &pool = placement::staticSharingAlgorithmsWithLB();
        EXPECT_NE(std::find(pool.begin(), pool.end(), alg),
                  pool.end());
    }
}

TEST(Studies, FigureAlgorithmsIncludeBaselines)
{
    const auto &algs = placement::figureAlgorithms();
    EXPECT_NE(std::find(algs.begin(), algs.end(), Algorithm::Random),
              algs.end());
    EXPECT_NE(std::find(algs.begin(), algs.end(), Algorithm::LoadBal),
              algs.end());
}

TEST(Lab, SeparateLabsAgreeOnPlacements)
{
    Lab a(64), b(64);
    auto pa = a.placementFor(AppId::Water, Algorithm::Random, 4);
    auto pb = b.placementFor(AppId::Water, Algorithm::Random, 4);
    EXPECT_EQ(pa.assignment(), pb.assignment());
}

TEST(Lab, ScaledCacheShrinksWithWorkload)
{
    Lab small(64);
    MachinePoint pt{2, 4};
    EXPECT_EQ(small.configFor(AppId::Water, pt).cacheBytes, 4096u);
    Lab full(1);
    EXPECT_EQ(full.configFor(AppId::Water, pt).cacheBytes,
              32u * 1024);
}

TEST(Studies, Table2RowUsesAppName)
{
    Lab lab(64);
    auto row = table2Row(lab, AppId::FFT);
    EXPECT_EQ(row.app, "FFT");
    EXPECT_GT(row.lengthMean, 0.0);
    EXPECT_GT(row.sharedRefsPct, 0.0);
}

} // namespace
} // namespace tsp::experiment
