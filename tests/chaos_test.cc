/**
 * @file
 * The chaos matrix as a test: every cataloged fault site x failure
 * kind is armed against the representative end-to-end scenario
 * (checkpointed parallel sweep + trace roundtrip + CSV report) and
 * each cell must satisfy the trifecta — no crash, clean degradation
 * or a resumable checkpoint, and bit-identical recovery on a
 * fault-free re-run. A cell whose armed site never fires also fails:
 * that is catalog/wiring drift.
 */

#include <gtest/gtest.h>

#include <string>

#include "experiment/chaos.h"
#include "fault/fault.h"
#include "svc/chaos_leg.h"

namespace tsp::experiment::chaos {
namespace {

TEST(Chaos, EveryCellOfTheMatrixPassesTheTrifecta)
{
    Options options;
    options.scale = 64;
    // 4 jobs over a 4-wide pool: the pool.dispatch cells then run
    // with several shards in flight, the configuration that once
    // unwound parallelFor's shard state under running tasks.
    options.jobs = 4;
    options.workDir = testing::TempDir();
    options.verbose = false;
    // The svc daemon leg makes the service fault sites (svc.admit,
    // svc.dequeue, net.*) reachable; the result store's sites
    // (store.append, store.load, store.lock) fire on both legs.
    options.extension = svc::chaosLeg(options.app, options.scale);

    MatrixResult matrix = runMatrix(options);

    // One cell per (site, kind) pair, none silently skipped.
    EXPECT_EQ(matrix.cells.size(), fault::Registry::catalog().size() *
                                       fault::allKinds().size());
    ASSERT_FALSE(matrix.baseline.empty());

    for (const CellResult &cell : matrix.cells) {
        EXPECT_TRUE(cell.passed()) << cell.describe();
        EXPECT_TRUE(cell.fired) << cell.spec.describe()
                                << ": armed site never fired";
    }
    EXPECT_EQ(matrix.passedCount(), matrix.cells.size());
    EXPECT_TRUE(matrix.allPassed());

    // The matrix must leave the process disarmed.
    EXPECT_FALSE(fault::armed());
}

TEST(Chaos, BaselineFingerprintIsDeterministic)
{
    Options options;
    options.scale = 64;
    options.jobs = 2;
    options.workDir = testing::TempDir();
    options.extension = svc::chaosLeg(options.app, options.scale);
    EXPECT_EQ(baselineFingerprint(options),
              baselineFingerprint(options));
}

} // namespace
} // namespace tsp::experiment::chaos
