/**
 * @file
 * Golden-digest pins for the paper's studies. Each study test runs a
 * full study at the figure scale and CRCs its observable outputs (cycle
 * counts, miss-component counts) in row order; the placement tests CRC
 * every thread-to-processor assignment the static algorithms produce,
 * so the clustering engine is pinned on its own. The pinned digests were
 * recorded from the pre-optimization simulator core, so these tests
 * prove the hot-path work (flat hash state, allocation-free
 * transactions, the merged event loop — see docs/performance.md)
 * changed nothing observable: any behavioural drift in the simulator,
 * workload generators or placement algorithms fails here first.
 *
 * If a digest changes INTENTIONALLY (a modelling fix, a new workload
 * default), re-record it and say why in the commit message; these
 * constants are the repo's bit-exactness contract.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/static_analysis.h"
#include "core/algorithms.h"
#include "experiment/lab.h"
#include "experiment/sampling_study.h"
#include "experiment/studies.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace tsp::experiment {
namespace {

/** Feed one value into a running CRC as 8 little-endian bytes. */
void
feed64(uint32_t &crc, uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    crc = util::crc32(b, 8, crc);
}

uint32_t
execTimeDigest(Lab &lab, workload::AppId app)
{
    uint32_t crc = 0;
    auto pts =
        execTimeStudy(lab, app, placement::figureAlgorithms(), {.jobs = 2});
    EXPECT_FALSE(pts.empty());
    for (const auto &pt : pts) {
        feed64(crc, static_cast<uint64_t>(pt.alg));
        feed64(crc, pt.point.processors);
        feed64(crc, pt.point.contexts);
        feed64(crc, pt.cycles);
    }
    return crc;
}

uint32_t
missComponentDigest(Lab &lab, workload::AppId app)
{
    uint32_t crc = 0;
    auto rows =
        execTimeStudy(lab, app, placement::figureAlgorithms(), {.jobs = 2});
    EXPECT_FALSE(rows.empty());
    for (const auto &row : rows) {
        feed64(crc, static_cast<uint64_t>(row.alg));
        feed64(crc, row.point.processors);
        feed64(crc, row.point.contexts);
        feed64(crc, row.compulsory);
        feed64(crc, row.intraConflict);
        feed64(crc, row.interConflict);
        feed64(crc, row.invalidation);
        feed64(crc, row.refs);
    }
    return crc;
}

TEST(GoldenDigest, ExecTimeWater)
{
    Lab lab(16);
    EXPECT_EQ(execTimeDigest(lab, workload::AppId::Water), 0x2ca477a7u);
}

TEST(GoldenDigest, MissComponentsWater)
{
    Lab lab(16);
    EXPECT_EQ(missComponentDigest(lab, workload::AppId::Water),
              0x8fedf0c7u);
}

TEST(GoldenDigest, ExecTimeFFT)
{
    Lab lab(16);
    EXPECT_EQ(execTimeDigest(lab, workload::AppId::FFT), 0xe080a6c9u);
}

/**
 * Every algorithm that places without a simulation: the twelve static
 * sharing algorithms (six metrics, each with and without +LB), then
 * LOAD-BAL and RANDOM.
 */
std::vector<placement::Algorithm>
staticAlgorithms()
{
    std::vector<placement::Algorithm> algs =
        placement::staticSharingAlgorithmsWithLB();
    algs.push_back(placement::Algorithm::LoadBal);
    algs.push_back(placement::Algorithm::Random);
    return algs;
}

/** Feed one placement (its algorithm, width and assignment). */
void
feedPlacement(uint32_t &crc, placement::Algorithm alg,
              const placement::PlacementMap &map)
{
    feed64(crc, static_cast<uint64_t>(alg));
    feed64(crc, map.processors());
    for (uint32_t proc : map.assignment())
        feed64(crc, proc);
}

/** CRC of @p algs' placements at every (app, standardSweep point). */
uint32_t
sweepPlacementDigest(const std::vector<placement::Algorithm> &algs,
                     size_t &placements)
{
    Lab lab(64);
    uint32_t crc = 0;
    for (workload::AppId app : workload::allApps()) {
        const auto threads =
            static_cast<uint32_t>(lab.analysis(app).threadCount());
        for (const MachinePoint &point : standardSweep(threads)) {
            for (placement::Algorithm alg : algs) {
                feedPlacement(crc, alg,
                              lab.placementFor(app, alg,
                                               point.processors));
                ++placements;
            }
        }
    }
    return crc;
}

// The placement digests below were recorded with the clusterer's
// explicit tie rule: among equal scores the lowest cluster pair wins
// (core/clusterer.h).

TEST(GoldenDigest, PlacementsAtEverySweepPoint)
{
    // Pins the clustering engine's output directly (the execution-time
    // digests see placements only through the cycles they cause):
    // 14 apps x standardSweep x 14 static algorithms = 700 placements.
    size_t placements = 0;
    EXPECT_EQ(sweepPlacementDigest(staticAlgorithms(), placements),
              0x8e96fbc2u);
    EXPECT_EQ(placements, 700u);
}

TEST(GoldenDigest, CoherencePlacementsAtEverySweepPoint)
{
    // The dynamic algorithms score a measured coherence matrix: one
    // probe simulation per app, then 100 placements. Gauss at 16
    // processors proves many partitions infeasible on the way.
    size_t placements = 0;
    EXPECT_EQ(sweepPlacementDigest(
                  {placement::Algorithm::CoherenceTraffic,
                   placement::Algorithm::CoherenceTrafficLB},
                  placements),
              0x88460035u);
    EXPECT_EQ(placements, 100u);
}

TEST(GoldenDigest, PlacementsOf28ThreadsOn11Processors)
{
    // 11 does not divide 28, so the thread-balance oracle must mix 2-
    // and 3-thread clusters.
    workload::AppProfile p;
    p.name = "synthetic-28";
    p.threads = 28;
    p.meanLength = 20000;
    p.lengthDevPct = 50.0;
    p.sharedRefFrac = 0.5;
    p.refsPerSharedAddr = 20.0;
    p.globalFrac = 0.7;
    p.neighborFrac = 0.3;
    p.seed = 99;
    const auto an = analysis::StaticAnalysis::analyze(
        workload::generateTraces(p, 1));
    uint32_t crc = 0;
    for (placement::Algorithm alg : staticAlgorithms()) {
        util::Rng rng(11);
        feedPlacement(crc, alg, placement::place(alg, an, 11, rng));
    }
    EXPECT_EQ(crc, 0x3b0a83aeu);
}

TEST(GoldenDigest, PlacementsAtNonDivisibleShapes)
{
    // T = 8P/3: each processor gets 2 or 3 threads. These shapes made
    // the thread-balance oracle exponential before it remembered the
    // states it had refuted (48 threads on 18 processors ran for
    // minutes).
    uint32_t crc = 0;
    for (auto [threads, processors] :
         {std::pair{40u, 15u}, std::pair{48u, 18u}, std::pair{56u, 21u},
          std::pair{64u, 24u}, std::pair{128u, 48u}}) {
        const auto an = analysis::StaticAnalysis::analyze(
            workload::generateTraces(
                syntheticScaleProfile(threads, 2000), 1));
        for (placement::Algorithm alg : staticAlgorithms()) {
            util::Rng rng(11);
            feedPlacement(crc, alg,
                          placement::place(alg, an, processors, rng));
        }
    }
    EXPECT_EQ(crc, 0x0619f36bu);
}

} // namespace
} // namespace tsp::experiment
