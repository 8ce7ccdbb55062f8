/**
 * @file
 * Golden-digest pins for the paper's studies. Each test runs a full
 * study at the figure scale and CRCs its observable outputs (cycle
 * counts, miss-component counts) in row order. The pinned digests were
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

#include "core/algorithms.h"
#include "experiment/lab.h"
#include "experiment/studies.h"
#include "util/checksum.h"
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

} // namespace
} // namespace tsp::experiment
