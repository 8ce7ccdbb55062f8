/**
 * @file
 * Interconnect model tests: the paper's contention-free default, the
 * queued-link behaviour, and end-to-end effects on the machine.
 */

#include <gtest/gtest.h>

#include "core/placement_map.h"
#include "sim/interconnect.h"
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

SimConfig
linkConfig(uint32_t links, uint32_t occupancy)
{
    SimConfig cfg;
    cfg.networkLinks = links;
    cfg.linkOccupancy = occupancy;
    return cfg;
}

TEST(Interconnect, ContentionFreeIsFlat)
{
    Interconnect net{SimConfig{}};
    for (uint64_t t : {0ull, 1ull, 1ull, 2ull})
        EXPECT_EQ(net.queueDelay(t, 0), 0u);
    EXPECT_EQ(net.transactions(), 4u);
    EXPECT_EQ(net.queueingCycles(), 0u);
    EXPECT_EQ(net.maxQueueing(), 0u);
}

TEST(Interconnect, SingleLinkSerializes)
{
    // One link carries every block, so distinct blocks queue too.
    Interconnect net(linkConfig(1, 10));
    EXPECT_EQ(net.queueDelay(100, 0), 0u);  // link free
    // Issued while the link is busy until 110, then until 120.
    EXPECT_EQ(net.queueDelay(100, 1), 10u);
    EXPECT_EQ(net.queueDelay(100, 2), 20u);
    EXPECT_EQ(net.queueingCycles(), 30u);
    EXPECT_EQ(net.maxQueueing(), 20u);
}

TEST(Interconnect, LinkFreesOverTime)
{
    Interconnect net(linkConfig(1, 10));
    net.queueDelay(0, 0);                    // busy until 10
    EXPECT_EQ(net.queueDelay(10, 0), 0u);    // exactly free again
    EXPECT_EQ(net.queueDelay(30, 0), 0u);    // long idle
}

TEST(Interconnect, ImplausibleLinkCountIsFatal)
{
    EXPECT_THROW(Interconnect(linkConfig(5000, 6)), util::FatalError);
}

TEST(Interconnect, ContentionNeverSpeedsExecution)
{
    TraceSet ts("more");
    for (uint32_t tid = 0; tid < 4; ++tid) {
        ThreadTrace t(tid);
        for (int i = 0; i < 20; ++i) {
            t.appendLoad(AddressSpace::sharedWord(64 * (tid * 20 + i)));
            t.appendWork(5);
        }
        ts.addThread(std::move(t));
    }
    PlacementMap map(4, {0, 1, 2, 3});
    SimConfig free;
    free.processors = 4;
    free.contexts = 1;
    free.cacheBytes = 64 * 1024;
    SimConfig tight = free;
    tight.networkLinks = 1;
    tight.linkOccupancy = 16;

    uint64_t freeTime = simulate(free, ts, map).executionTime();
    auto tightStats = simulate(tight, ts, map);
    EXPECT_GT(tightStats.executionTime(), freeTime);
    EXPECT_GT(tightStats.networkQueueingCycles, 0u);
}

TEST(Interconnect, QueuedLinksInterleaveByBlockAddress)
{
    Interconnect net(linkConfig(2, 10));

    EXPECT_EQ(net.queueDelay(0, 0), 0u);   // link 0, busy until 10
    EXPECT_EQ(net.queueDelay(0, 1), 0u);   // link 1, busy until 10
    EXPECT_EQ(net.queueDelay(0, 2), 10u);  // queues behind block 0
    EXPECT_EQ(net.queueDelay(0, 3), 10u);  // queues behind block 1
    EXPECT_EQ(net.queueDelay(25, 4), 0u);  // link 0 long free again
    EXPECT_EQ(net.transactions(), 5u);
    EXPECT_EQ(net.queueingCycles(), 20u);
    EXPECT_EQ(net.maxQueueing(), 10u);
}

TEST(Interconnect, HotBlockContendsWithItselfOnItsLink)
{
    // Three back-to-back transactions on the same block serialize on
    // one link even though the other link stays idle.
    Interconnect net(linkConfig(2, 6));
    EXPECT_EQ(net.queueDelay(0, 8), 0u);
    EXPECT_EQ(net.queueDelay(0, 8), 6u);
    EXPECT_EQ(net.queueDelay(0, 8), 12u);
}

TEST(Interconnect, MachineSerializesMissesOnOneLink)
{
    // Two processors miss on distinct blocks at the same cycle; one
    // queued link serializes them.
    TraceSet ts("linkcontend");
    for (uint32_t tid = 0; tid < 2; ++tid) {
        ThreadTrace t(tid);
        t.appendLoad(AddressSpace::sharedWord(64 * tid));
        ts.addThread(std::move(t));
    }
    SimConfig cfg;
    cfg.processors = 2;
    cfg.contexts = 1;
    cfg.cacheBytes = 4096;
    cfg.networkLinks = 1;
    cfg.linkOccupancy = 8;

    SimStats s = simulate(cfg, ts, PlacementMap(2, {0, 1}));
    EXPECT_EQ(s.networkTransactions, 2u);
    EXPECT_EQ(s.networkQueueingCycles, 8u);
    EXPECT_EQ(s.networkMaxQueueing, 8u);
    uint64_t f0 = s.procs[0].finishTime, f1 = s.procs[1].finishTime;
    EXPECT_EQ(std::max(f0, f1) - std::min(f0, f1), 8u);
}

TEST(Interconnect, DefaultConfigHasNoContention)
{
    TraceSet ts("defaultnet");
    ThreadTrace t0(0);
    t0.appendLoad(AddressSpace::sharedWord(0));
    ts.addThread(std::move(t0));
    SimConfig cfg;
    cfg.processors = 1;
    cfg.contexts = 1;
    cfg.cacheBytes = 4096;
    SimStats s = simulate(cfg, ts, PlacementMap(1, {0}));
    EXPECT_EQ(s.networkTransactions, 1u);
    EXPECT_EQ(s.networkQueueingCycles, 0u);
}

} // namespace
} // namespace tsp::sim
