/**
 * @file
 * Architectural-parameter tests: SimConfig validation/description and
 * machine behaviour under non-default parameters (upgrade stalls,
 * multi-cycle hits, zero-cost switches, latency sweeps).
 */

#include <gtest/gtest.h>

#include "core/placement_map.h"
#include "sim/machine.h"
#include "trace/address_space.h"
#include "trace/trace_set.h"
#include "util/error.h"

namespace tsp::sim {
namespace {

using placement::PlacementMap;
using trace::AddressSpace;
using trace::ThreadTrace;
using trace::TraceSet;

// ---------------------------------------------------------------- config

TEST(SimConfig, DefaultsMatchThePaper)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.hitLatency, 1u);
    EXPECT_EQ(cfg.memoryLatency, 50u);
    EXPECT_EQ(cfg.contextSwitchCycles, 6u);
    EXPECT_EQ(cfg.associativity, 1u);
    EXPECT_FALSE(cfg.profileSharing);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(SimConfig, ValidationCatchesBadParameters)
{
    SimConfig cfg;
    cfg.processors = 0;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    // The directory/monitor sharer masks are sized for exactly
    // kMaxProcessors; the boundary must validate and one past it
    // must not.
    cfg.processors = kMaxProcessors;
    EXPECT_NO_THROW(cfg.validate());
    cfg.processors = kMaxProcessors + 1;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    cfg = SimConfig{};
    cfg.contexts = 0;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    cfg = SimConfig{};
    cfg.cacheBytes = 3000;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    cfg = SimConfig{};
    cfg.blockBytes = 2;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    cfg = SimConfig{};
    cfg.associativity = 3;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    cfg = SimConfig{};
    cfg.hitLatency = 0;
    EXPECT_THROW(cfg.validate(), util::FatalError);
    cfg = SimConfig{};
    cfg.cacheBytes = 32;
    cfg.blockBytes = 32;
    cfg.associativity = 2;  // cache smaller than one set
    EXPECT_THROW(cfg.validate(), util::FatalError);
}

TEST(SimConfig, NumSetsAccountsForAssociativity)
{
    SimConfig cfg;
    cfg.cacheBytes = 1024;
    cfg.blockBytes = 32;
    EXPECT_EQ(cfg.numSets(), 32u);
    cfg.associativity = 4;
    EXPECT_EQ(cfg.numSets(), 8u);
}

TEST(SimConfig, DescribeMentionsTheGeometry)
{
    SimConfig cfg;
    std::string d = cfg.describe();
    EXPECT_NE(d.find("direct-mapped"), std::string::npos);
    cfg.associativity = 4;
    EXPECT_NE(cfg.describe().find("4-way"), std::string::npos);
}

TEST(SimConfig, InfiniteCacheVariant)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.withInfiniteCache().cacheBytes,
              8ull * 1024 * 1024);
    EXPECT_EQ(cfg.withInfiniteCache().processors, cfg.processors);
}

// ------------------------------------------------------------- variants

SimConfig
base()
{
    SimConfig cfg;
    cfg.processors = 2;
    cfg.contexts = 1;
    cfg.cacheBytes = 4096;
    return cfg;
}

TEST(MachineVariants, MultiCycleHitsLengthenBusyTime)
{
    TraceSet ts("hits");
    ThreadTrace t0(0);
    t0.appendLoad(AddressSpace::sharedWord(0));  // miss
    for (int i = 0; i < 10; ++i)
        t0.appendLoad(AddressSpace::sharedWord(0));  // hits
    ts.addThread(std::move(t0));
    PlacementMap map(1, {0});

    SimConfig oneCycle = base();
    oneCycle.processors = 1;
    SimConfig threeCycle = oneCycle;
    threeCycle.hitLatency = 3;

    auto s1 = simulate(oneCycle, ts, map);
    auto s3 = simulate(threeCycle, ts, map);
    // 11 references, each charged hitLatency at retire.
    EXPECT_EQ(s3.procs[0].busyCycles - s1.procs[0].busyCycles,
              11u * 2u);
}

TEST(MachineVariants, ZeroSwitchCostStillSwitches)
{
    TraceSet ts("zswitch");
    for (uint32_t tid = 0; tid < 2; ++tid) {
        ThreadTrace t(tid);
        t.appendLoad(AddressSpace::sharedWord(64 * (tid + 1)));
        t.appendWork(20);
        ts.addThread(std::move(t));
    }
    PlacementMap map(1, {0, 0});
    SimConfig cfg = base();
    cfg.processors = 1;
    cfg.contexts = 2;
    cfg.contextSwitchCycles = 0;
    auto s = simulate(cfg, ts, map);
    EXPECT_EQ(s.procs[0].switchCycles, 0u);
    // Both misses overlap: second issues right after the first.
    EXPECT_LT(s.executionTime(), 2u * (1 + 50 + 20));
}

TEST(MachineVariants, LatencyScalesStallTime)
{
    TraceSet ts("lat");
    ThreadTrace t0(0);
    t0.appendLoad(AddressSpace::sharedWord(0));
    ts.addThread(std::move(t0));
    PlacementMap map(1, {0});
    for (uint32_t latency : {10u, 100u, 400u}) {
        SimConfig cfg = base();
        cfg.processors = 1;
        cfg.memoryLatency = latency;
        auto s = simulate(cfg, ts, map);
        EXPECT_EQ(s.procs[0].finishTime, 1u + latency);
    }
}

TEST(MachineVariants, UpgradeWithoutSharersNeverStalls)
{
    // Private read-then-write data: MESI Exclusive makes the write
    // silent.
    TraceSet ts("priv");
    ThreadTrace t0(0);
    t0.appendLoad(AddressSpace::privateWord(0, 0));
    t0.appendStore(AddressSpace::privateWord(0, 0));
    ts.addThread(std::move(t0));
    SimConfig cfg = base();
    cfg.processors = 1;
    auto s = simulate(cfg, ts, PlacementMap(1, {0}));
    EXPECT_EQ(s.totalUpgrades(), 0u);
    EXPECT_EQ(s.procs[0].finishTime, 1u + 50u + 1u);
}

} // namespace
} // namespace tsp::sim
