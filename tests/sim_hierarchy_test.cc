/**
 * @file
 * Shared-L2 hierarchy tests: hand-computed fill latencies for the
 * inclusive L2, back-invalidation on L2 eviction, the flat-1994
 * bit-identity contract of the memory-system variants, and the
 * cumulative variant configurations themselves.
 */

#include <gtest/gtest.h>

#include "core/placement_map.h"
#include "experiment/configs.h"
#include "sim/machine.h"
#include "trace/address_space.h"
#include "trace/trace_set.h"
#include "workload/app_profile.h"
#include "workload/generator.h"

namespace tsp::sim {
namespace {

using placement::PlacementMap;
using trace::AddressSpace;
using trace::ThreadTrace;
using trace::TraceSet;

/** Distinct shared-region block addresses (32 B blocks). */
uint64_t
sharedBlockAddr(uint64_t i)
{
    return AddressSpace::sharedBase + i * 32;
}

/** 1 KB direct-mapped L1, invariant-checked every reference. */
SimConfig
l2Config(uint32_t procs)
{
    SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = 1;
    cfg.cacheBytes = 1024;
    cfg.blockBytes = 32;
    cfg.l2Bytes = 4096;
    cfg.l2Associativity = 8;
    cfg.l2HitLatency = 12;
    cfg.paranoidEvery = 1;
    return cfg;
}

// ------------------------------------------------ hand-computed fills

TEST(Hierarchy, InclusiveL2ServesConflictVictimsFaster)
{
    // load X (L1+L2 miss, 50cy), load Y = X+1024 (same L1 set: evicts
    // X from L1, X stays in the inclusive L2; 50cy), load X (L1 miss,
    // L2 hit: 12cy). Busy 3 + idle 112 = 115.
    TraceSet ts("incl");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendLoad(sharedBlockAddr(0) + 1024);
    t0.appendLoad(sharedBlockAddr(0));
    ts.addThread(std::move(t0));

    SimStats s = simulate(l2Config(1), ts, PlacementMap(1, {0}));
    EXPECT_EQ(s.l2Misses, 2u);
    EXPECT_EQ(s.l2Hits, 1u);
    EXPECT_EQ(s.executionTime(), 3u + 50u + 50u + 12u);
    EXPECT_EQ(s.procs[0].hits, 0u);
}

TEST(Hierarchy, L2EvictionBackInvalidatesL1Copies)
{
    // A tiny 2-set direct-mapped L2 under a large L1: blocks 0, 2, 4
    // land in the same L2 set, so each insert evicts the previous
    // block from the L2 and must back-invalidate its L1 copy (the
    // dirty copy of block 0 writes back). Reloading block 0 misses.
    TraceSet ts("backinval");
    ThreadTrace t0(0);
    t0.appendStore(sharedBlockAddr(0));
    t0.appendLoad(sharedBlockAddr(2));
    t0.appendLoad(sharedBlockAddr(4));
    t0.appendLoad(sharedBlockAddr(0));
    ts.addThread(std::move(t0));

    SimConfig cfg = l2Config(1);
    cfg.cacheBytes = 4096;  // distinct L1 sets for all three blocks
    cfg.l2Bytes = 64;       // 2 sets x 1 way
    cfg.l2Associativity = 1;
    SimStats s = simulate(cfg, ts, PlacementMap(1, {0}));

    EXPECT_EQ(s.l2BackInvalidations, 3u);
    EXPECT_EQ(s.l2Hits, 0u);
    EXPECT_EQ(s.l2Misses, 4u);
    EXPECT_EQ(s.procs[0].hits, 0u);
    // The dirty copy of block 0 wrote back when its L2 frame left.
    EXPECT_EQ(s.procs[0].writebacks, 1u);
}

TEST(Hierarchy, SharedL2IsSharedAcrossProcessors)
{
    // p0 faults a block in (L2 miss); p1's later miss on the same
    // block — after p0's copy is evicted by a conflicting load —
    // still finds it in the shared L2.
    TraceSet ts("crossfeed");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendLoad(sharedBlockAddr(0) + 1024);  // evicts p0's L1 copy
    ThreadTrace t1(1);
    t1.appendWork(200);
    t1.appendLoad(sharedBlockAddr(0));
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    SimStats s = simulate(l2Config(2), ts, PlacementMap(2, {0, 1}));
    EXPECT_EQ(s.l2Hits, 1u);  // p1's fill came from the shared L2
    EXPECT_EQ(s.l2Misses, 2u);
}

// ------------------------------------------- memory-system variants

workload::AppProfile
variantProfile()
{
    workload::AppProfile p;
    p.name = "variants";
    p.threads = 8;
    p.meanLength = 20000;
    p.sharedRefFrac = 0.4;
    p.refsPerSharedAddr = 10.0;
    p.globalFrac = 1.0;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 33;
    return p;
}

SimConfig
variantConfig(experiment::MemSystem ms)
{
    SimConfig cfg;
    cfg.processors = 4;
    cfg.contexts = 2;
    cfg.cacheBytes = 1024;
    cfg.blockBytes = 32;
    experiment::applyMemSystem(cfg, ms);
    cfg.validate();
    return cfg;
}

TEST(Hierarchy, Flat1994VariantIsBitIdenticalToTheDefault)
{
    auto traces = workload::generateTraces(variantProfile(), 1);
    PlacementMap map(4, {0, 1, 2, 3, 0, 1, 2, 3});

    SimConfig plain;
    plain.processors = 4;
    plain.contexts = 2;
    plain.cacheBytes = 1024;
    plain.blockBytes = 32;
    SimStats a = simulate(plain, traces, map);
    SimStats b =
        simulate(variantConfig(experiment::MemSystem::Flat1994),
                 traces, map);

    ASSERT_EQ(a.procs.size(), b.procs.size());
    EXPECT_EQ(a.executionTime(), b.executionTime());
    for (size_t p = 0; p < a.procs.size(); ++p) {
        EXPECT_EQ(a.procs[p].busyCycles, b.procs[p].busyCycles);
        EXPECT_EQ(a.procs[p].idleCycles, b.procs[p].idleCycles);
        EXPECT_EQ(a.procs[p].finishTime, b.procs[p].finishTime);
        EXPECT_EQ(a.procs[p].hits, b.procs[p].hits);
        EXPECT_EQ(a.procs[p].misses, b.procs[p].misses);
        EXPECT_EQ(a.procs[p].writebacks, b.procs[p].writebacks);
        EXPECT_EQ(a.procs[p].upgrades, b.procs[p].upgrades);
    }
    EXPECT_EQ(b.l2Hits + b.l2Misses, 0u);
    EXPECT_EQ(b.networkQueueingCycles, 0u);
}

TEST(Hierarchy, VariantsAreCumulative)
{
    using experiment::MemSystem;
    SimConfig flat = variantConfig(MemSystem::Flat1994);
    EXPECT_EQ(flat.l2Bytes, 0u);
    EXPECT_EQ(flat.protocol, Protocol::Mesi);
    EXPECT_EQ(flat.networkLinks, 0u);

    SimConfig l2 = variantConfig(MemSystem::SharedL2);
    EXPECT_EQ(l2.l2Bytes, 4 * l2.cacheBytes);
    EXPECT_EQ(l2.protocol, Protocol::Mesi);

    SimConfig moesi = variantConfig(MemSystem::Moesi);
    EXPECT_EQ(moesi.l2Bytes, 4 * moesi.cacheBytes);
    EXPECT_EQ(moesi.protocol, Protocol::Moesi);
    EXPECT_EQ(moesi.networkLinks, 0u);

    SimConfig cont = variantConfig(MemSystem::Contended);
    EXPECT_EQ(cont.protocol, Protocol::Moesi);
    EXPECT_EQ(cont.networkLinks, cont.processors);
    EXPECT_EQ(cont.linkOccupancy, 6u);
}

TEST(Hierarchy, ModernVariantsChangeTheObservedBehavior)
{
    auto traces = workload::generateTraces(variantProfile(), 1);
    PlacementMap map(4, {0, 1, 2, 3, 0, 1, 2, 3});
    using experiment::MemSystem;

    SimStats flat =
        simulate(variantConfig(MemSystem::Flat1994), traces, map);
    SimStats l2 =
        simulate(variantConfig(MemSystem::SharedL2), traces, map);
    SimStats moesi =
        simulate(variantConfig(MemSystem::Moesi), traces, map);
    SimStats cont =
        simulate(variantConfig(MemSystem::Contended), traces, map);

    // The L2 absorbs some misses: never slower than flat.
    EXPECT_GT(l2.l2Hits + l2.l2Misses, 0u);
    EXPECT_LE(l2.executionTime(), flat.executionTime());

    // MOESI only moves writebacks around: cycle-identical to MESI.
    EXPECT_EQ(moesi.executionTime(), l2.executionTime());

    // Contention makes transactions queue. (Execution time is not
    // monotone here: delaying one context's fill reshuffles the
    // round-robin interleaving, which can change the coherence
    // pattern either way — see Interconnect.ContentionNeverSpeeds-
    // Execution for the monotone single-context property.)
    EXPECT_GT(cont.networkQueueingCycles, 0u);
    EXPECT_GT(cont.networkTransactions, 0u);
}

} // namespace
} // namespace tsp::sim
