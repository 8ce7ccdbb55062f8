/**
 * @file
 * Machine-scale tests for the 64-1024 processor range (ISSUE 10).
 *
 * Three contracts: (1) above the 128-processor inline width of
 * sim::SharerSet the simulation must behave exactly as below it —
 * streaming and materialized runs stay bit-identical through the
 * spill; (2) a 1024-processor streaming run must keep
 * trace.resident_bytes bounded by the chunk windows, far below the
 * materialized trace footprint, which is what lets billion-reference
 * runs fit in RAM; (3) event order at 129-1024 processors is pinned
 * by whole-SimStats digests under every memory system.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/placement_map.h"
#include "experiment/configs.h"
#include "sim/machine.h"
#include "sim/sharer_set.h"
#include "trace/chunk_source.h"
#include "util/checksum.h"
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

/** Feed one value into a running CRC as 8 little-endian bytes. */
void
feed64(uint32_t &crc, uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    crc = util::crc32(b, 8, crc);
}

/**
 * CRC over a whole SimStats: every per-processor counter (including
 * barrier cycles), the machine-wide counters, and the thread-pair
 * coherence matrix in row-major upper-triangle order.
 */
uint32_t
statsDigest(const SimStats &s)
{
    uint32_t crc = 0;
    for (const ProcessorStats &ps : s.procs) {
        for (uint64_t v :
             {ps.busyCycles, ps.switchCycles, ps.idleCycles,
              ps.finishTime, ps.barrierCycles, ps.instructions,
              ps.memRefs, ps.hits, ps.upgrades, ps.invalidationsSent,
              ps.invalidationsReceived, ps.writebacks})
            feed64(crc, v);
        for (uint64_t m : ps.misses)
            feed64(crc, m);
    }
    for (uint64_t v :
         {s.sharingCompulsoryMisses, s.networkTransactions,
          s.networkQueueingCycles, s.networkMaxQueueing, s.l2Hits,
          s.l2Misses, s.l2Writebacks, s.l2BackInvalidations})
        feed64(crc, v);
    const size_t n = s.coherencePairs.size();
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j)
            feed64(crc,
                   std::bit_cast<uint64_t>(s.coherencePairs.get(i, j)));
    }
    return crc;
}

/** One pinned wide-machine run. */
struct WideDigest
{
    uint32_t procs;
    uint32_t contexts;  //!< threads = procs x contexts, round-robin
    experiment::MemSystem ms;
    bool barriers;
    uint32_t crc;
};

// Event order above 128 processors, where the paper-study golden
// digests (<= 16 processors, flat-1994) do not reach: whole-SimStats
// CRCs of streamed synthetic runs at 129 (padding the event tree's
// leaves to 256), 256 and 1024 processors under every memory system,
// free-running and with barriers (every barrier release reschedules
// processors mid-chain), plus the folded 128x2 shape of the wide
// sampled study. Recorded with the linear argmin-scan event loop.
TEST(SimScale, WideMachineDigests)
{
    using experiment::MemSystem;
    const WideDigest pinned[] = {
        {129, 1, MemSystem::Flat1994, false, 0xd30517dau},
        {129, 1, MemSystem::SharedL2, false, 0xa15b18b7u},
        {129, 1, MemSystem::Moesi, false, 0x76f3035cu},
        {129, 1, MemSystem::Contended, false, 0x6448b8b4u},
        {129, 1, MemSystem::Flat1994, true, 0x8a4384ceu},
        {129, 1, MemSystem::SharedL2, true, 0x9e2769cfu},
        {129, 1, MemSystem::Moesi, true, 0xa89b7ab2u},
        {129, 1, MemSystem::Contended, true, 0xc36eb062u},
        {256, 1, MemSystem::Flat1994, false, 0x3d4dcaf9u},
        {256, 1, MemSystem::SharedL2, false, 0xe485e891u},
        {256, 1, MemSystem::Moesi, false, 0x041462cdu},
        {256, 1, MemSystem::Contended, false, 0xceaeb3f6u},
        {256, 1, MemSystem::Flat1994, true, 0x45c1eb2bu},
        {256, 1, MemSystem::SharedL2, true, 0x3ed5d1eau},
        {256, 1, MemSystem::Moesi, true, 0x1e7c9ae7u},
        {256, 1, MemSystem::Contended, true, 0xd078cc99u},
        {1024, 1, MemSystem::Flat1994, false, 0x126fec59u},
        {1024, 1, MemSystem::SharedL2, false, 0x6a6bcd96u},
        {1024, 1, MemSystem::Moesi, false, 0xc86b0398u},
        {1024, 1, MemSystem::Contended, false, 0x6f8b3ffdu},
        {1024, 1, MemSystem::Flat1994, true, 0x1717aac3u},
        {1024, 1, MemSystem::SharedL2, true, 0xd5ab61c9u},
        {1024, 1, MemSystem::Moesi, true, 0x1b5d7411u},
        {1024, 1, MemSystem::Contended, true, 0x9bc471a5u},
        {128, 2, MemSystem::Flat1994, false, 0x165eaa2eu},
    };
    for (const WideDigest &d : pinned) {
        const uint32_t threads = d.procs * d.contexts;
        SCOPED_TRACE(testing::Message()
                     << d.procs << "x" << d.contexts << " "
                     << experiment::memSystemName(d.ms)
                     << (d.barriers ? " barriers" : ""));
        // About 1.5 M instructions per run at every width.
        workload::AppProfile p = scaleProfile(threads, 1'500'000 / threads);
        p.barriers = d.barriers;
        SimConfig cfg = scaleConfig(d.procs);
        cfg.contexts = d.contexts;
        experiment::applyMemSystem(cfg, d.ms);
        std::vector<uint32_t> assign(threads);
        for (uint32_t t = 0; t < threads; ++t)
            assign[t] = t % d.procs;
        workload::AppStreamFactory factory(p, /*scale=*/1);
        SimStats stats = simulateStreaming(
            cfg, factory, PlacementMap(d.procs, std::move(assign)));
        EXPECT_GT(stats.totalMemRefs(), 0u);
        if (d.barriers) {
            EXPECT_GT(stats.procs[0].barrierCycles, 0u);
        }
        EXPECT_EQ(statsDigest(stats), d.crc)
            << std::hex << "0x" << statsDigest(stats);
    }
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
