/**
 * @file
 * Machine-scale tests for the 64-1024 processor range (ISSUE 10).
 *
 * Two contracts: (1) above the 128-processor inline width of
 * sim::SharerSet the simulation must behave exactly as below it —
 * streaming and materialized runs stay bit-identical through the
 * spill; (2) a 1024-processor streaming run must keep
 * trace.resident_bytes bounded by the chunk windows, far below the
 * materialized trace footprint, which is what lets billion-reference
 * runs fit in RAM.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/placement_map.h"
#include "experiment/configs.h"
#include "sim/machine.h"
#include "sim/sharer_set.h"
#include "trace/chunk_source.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace tsp::sim {
namespace {

using placement::PlacementMap;

workload::AppProfile
scaleProfile(uint32_t threads, uint64_t meanLength)
{
    workload::AppProfile p;
    p.name = "scale-test";
    p.threads = threads;
    p.meanLength = meanLength;
    p.lengthDevPct = 20.0;
    p.phases = 4;
    p.globalFrac = 0.5;
    p.neighborFrac = 0.2;
    p.mailboxFrac = 0.1;
    p.sliceFrac = 0.2;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 29;
    return p;
}

SimConfig
scaleConfig(uint32_t procs)
{
    SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = 1;
    cfg.cacheBytes = 16 * 1024;
    cfg.blockBytes = 32;
    return cfg;
}

PlacementMap
identity(uint32_t threads)
{
    std::vector<uint32_t> assign(threads);
    for (uint32_t t = 0; t < threads; ++t)
        assign[t] = t;
    return PlacementMap(threads, assign);
}

void
expectIdenticalStats(const SimStats &a, const SimStats &b)
{
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (size_t p = 0; p < a.procs.size(); ++p) {
        const ProcessorStats &x = a.procs[p];
        const ProcessorStats &y = b.procs[p];
        EXPECT_EQ(x.busyCycles, y.busyCycles) << "proc " << p;
        EXPECT_EQ(x.switchCycles, y.switchCycles) << "proc " << p;
        EXPECT_EQ(x.idleCycles, y.idleCycles) << "proc " << p;
        EXPECT_EQ(x.finishTime, y.finishTime) << "proc " << p;
        EXPECT_EQ(x.instructions, y.instructions) << "proc " << p;
        EXPECT_EQ(x.memRefs, y.memRefs) << "proc " << p;
        EXPECT_EQ(x.hits, y.hits) << "proc " << p;
        EXPECT_EQ(x.misses, y.misses) << "proc " << p;
        EXPECT_EQ(x.upgrades, y.upgrades) << "proc " << p;
        EXPECT_EQ(x.invalidationsSent, y.invalidationsSent)
            << "proc " << p;
        EXPECT_EQ(x.writebacks, y.writebacks) << "proc " << p;
    }
    EXPECT_EQ(a.executionTime(), b.executionTime());
    EXPECT_EQ(a.sharingCompulsoryMisses, b.sharingCompulsoryMisses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l2Writebacks, b.l2Writebacks);
    EXPECT_EQ(a.l2BackInvalidations, b.l2BackInvalidations);
    EXPECT_EQ(a.networkTransactions, b.networkTransactions);
    EXPECT_EQ(a.networkQueueingCycles, b.networkQueueingCycles);
    EXPECT_EQ(a.networkMaxQueueing, b.networkMaxQueueing);
}

// 160 processors crosses the SharerSet inline/spill boundary mid-run:
// the materialized and streaming paths must agree bit-for-bit under
// every memory system (shared L2, MOESI, queued links), and the
// sharing monitor must profile toucher ids above 128 correctly.
TEST(SimScale, SpillParityStreamingVsMaterialized)
{
    const uint32_t threads = 160;
    workload::AppProfile p = scaleProfile(threads, 6'000);
    PlacementMap place = identity(threads);
    trace::TraceSet traces = workload::generateTraces(p, /*scale=*/1);

    for (experiment::MemSystem ms : experiment::allMemSystems()) {
        SCOPED_TRACE(experiment::memSystemName(ms));
        SimConfig cfg = scaleConfig(threads);
        experiment::applyMemSystem(cfg, ms);
        cfg.profileSharing = true;

        SimStats eager = simulate(cfg, traces, place);
        workload::AppStreamFactory factory(p, /*scale=*/1);
        SimStats streamed = simulateStreaming(cfg, factory, place);

        expectIdenticalStats(eager, streamed);
        EXPECT_GT(eager.totalMemRefs(), 0u);
        ASSERT_TRUE(eager.profiledSharing);
        EXPECT_GT(eager.sharingProfile.sharedBlocks, 0u);
        EXPECT_EQ(eager.sharingProfile.sharedBlocks,
                  streamed.sharingProfile.sharedBlocks);
        EXPECT_EQ(eager.sharingProfile.migratoryShared,
                  streamed.sharingProfile.migratoryShared);
    }
}

// The full 1024-processor machine: the run completes, and the
// streaming window keeps resident trace memory bounded — a fixed
// number of chunks per thread, several times smaller than the
// materialized trace would be (the gap widens with trace length).
TEST(SimScale, BoundedResidentBytesAt1024Procs)
{
    const uint32_t threads = sim::kMaxProcessors;  // 1024
    const size_t chunkEvents = 512;
    workload::AppProfile p = scaleProfile(threads, 20'000);
    SimConfig cfg = scaleConfig(threads);
    PlacementMap place = identity(threads);

    // Producer batches smaller than the chunk target: a refill cuts
    // chunks at chunkEvents plus at most one batch of overshoot.
    workload::AppStreamFactory factory(p, /*scale=*/1,
                                       /*stepsPerBatch=*/128);
    size_t residentBytes = 0;
    SimStats stats = simulateStreaming(cfg, factory, place,
                                       chunkEvents, &residentBytes);

    EXPECT_EQ(stats.procs.size(), threads);
    EXPECT_GT(stats.executionTime(), 0u);
    EXPECT_GT(stats.totalMemRefs(), 1'000'000u);
    for (const ProcessorStats &ps : stats.procs)
        EXPECT_GT(ps.instructions, 0u);

    // Hard bound: at most a few chunks resident per thread at the
    // high-water mark, independent of trace length. Each resident
    // chunk holds at most chunkEvents plus one producer batch of
    // overshoot, and a single lane keeps at most two chunks per
    // thread alive (the one being consumed and the one just pulled).
    EXPECT_GT(residentBytes, 0u);
    EXPECT_LE(residentBytes, static_cast<size_t>(threads) * 4 *
                                 chunkEvents *
                                 sizeof(trace::TraceEvent));

    // Relative bound: well below what materializing the traces would
    // take. Data references alone (one packed event each) are a lower
    // bound on the materialized footprint.
    size_t materializedFloor =
        stats.totalMemRefs() * sizeof(trace::TraceEvent);
    EXPECT_LT(residentBytes * 2, materializedFloor);
}

} // namespace
} // namespace tsp::sim
