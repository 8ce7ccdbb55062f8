/**
 * @file
 * Machine tests: hand-computed cycle-exact timelines for small traces,
 * coherence attribution scenarios, the threads-beyond-contexts queue,
 * property tests (cycle identity, hit+miss conservation,
 * determinism, infinite-cache behaviour) over random workloads, and
 * the event tree against the argmin scan it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/placement_map.h"
#include "sim/event_tree.h"
#include "sim/machine.h"
#include "trace/address_space.h"
#include "trace/trace_set.h"
#include "util/error.h"
#include "util/rng.h"

namespace tsp::sim {
namespace {

using placement::PlacementMap;
using trace::AddressSpace;
using trace::ThreadTrace;
using trace::TraceSet;

/** Base config: 1 KB cache, 32 B blocks, 50-cycle misses, 6-cycle switch. */
SimConfig
baseConfig(uint32_t procs, uint32_t ctxs)
{
    SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = ctxs;
    cfg.cacheBytes = 1024;
    cfg.blockBytes = 32;
    return cfg;
}

/** Distinct shared-region block addresses. */
uint64_t
sharedBlockAddr(uint64_t i)
{
    return AddressSpace::sharedBase + i * 32;
}

// --------------------------------------------------- hand-computed runs

TEST(Machine, SingleThreadMissAndHitTimeline)
{
    // work 10, load X (miss), work 5, load X (hit):
    // busy 17, idle 50 (miss latency with nothing to switch to),
    // finish 67.
    TraceSet ts("one");
    ThreadTrace t0(0);
    t0.appendWork(10);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendWork(5);
    t0.appendLoad(sharedBlockAddr(0));
    ts.addThread(std::move(t0));

    SimStats s = simulate(baseConfig(1, 1), ts, PlacementMap(1, {0}));
    const auto &p = s.procs[0];
    EXPECT_EQ(p.busyCycles, 17u);
    EXPECT_EQ(p.switchCycles, 0u);
    EXPECT_EQ(p.idleCycles, 50u);
    EXPECT_EQ(p.finishTime, 67u);
    EXPECT_EQ(p.instructions, 17u);
    EXPECT_EQ(p.memRefs, 2u);
    EXPECT_EQ(p.hits, 1u);
    EXPECT_EQ(p.missCount(MissKind::Compulsory), 1u);
    EXPECT_EQ(s.executionTime(), 67u);
}

TEST(Machine, TwoContextsOverlapMissesWithSwitches)
{
    // Two threads on one processor, each: load (miss), work 20.
    // t=0 ctx0 misses (busy 1); switch 6; ctx1 misses at 8 (busy 1);
    // idle until 51; switch 6; ctx0 works 20 -> finish 77; switch 6;
    // ctx1 works 20 -> finish 103.
    TraceSet ts("two");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendWork(20);
    ThreadTrace t1(1);
    t1.appendLoad(sharedBlockAddr(1));
    t1.appendWork(20);
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    SimStats s = simulate(baseConfig(1, 2), ts, PlacementMap(1, {0, 0}));
    const auto &p = s.procs[0];
    EXPECT_EQ(p.busyCycles, 42u);
    EXPECT_EQ(p.switchCycles, 18u);
    EXPECT_EQ(p.idleCycles, 43u);
    EXPECT_EQ(p.finishTime, 103u);
    EXPECT_EQ(p.missCount(MissKind::Compulsory), 2u);
    EXPECT_EQ(p.busyCycles + p.switchCycles + p.idleCycles,
              p.finishTime);
}

TEST(Machine, ReadAfterRemoteWriteDowngradesAndAttributes)
{
    // P0/t0 stores X; P1/t1 (after 30 work) loads X twice. The load is
    // a sharing compulsory miss: the directory knew the block, t0
    // wrote it.
    TraceSet ts("rw");
    ThreadTrace t0(0);
    t0.appendStore(sharedBlockAddr(0));
    t0.appendWork(100);
    ThreadTrace t1(1);
    t1.appendWork(30);
    t1.appendLoad(sharedBlockAddr(0));
    t1.appendLoad(sharedBlockAddr(0));
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    stats::PairMatrix pairs(2);
    SimStats s = simulate(baseConfig(2, 1), ts,
                          PlacementMap(2, {0, 1}), &pairs);
    EXPECT_EQ(s.sharingCompulsoryMisses, 1u);
    EXPECT_DOUBLE_EQ(pairs.get(0, 1), 1.0);
    EXPECT_EQ(s.procs[0].writebacks, 1u);  // M -> S downgrade
    EXPECT_EQ(s.procs[1].hits, 1u);
    EXPECT_EQ(s.totalInvalidationsSent(), 0u);
}

TEST(Machine, RemoteWriteCausesInvalidationMiss)
{
    // t0 loads X, works, loads X again; t1 stores X in between.
    // Expect: one invalidation sent (t1 -> t0's copy), one
    // invalidation miss at t0's re-read, one sharing compulsory at
    // t1's store, attribution pairs totalling 3, exec time 261.
    TraceSet ts("inv");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendWork(100);
    t0.appendLoad(sharedBlockAddr(0));
    ThreadTrace t1(1);
    t1.appendWork(10);
    t1.appendStore(sharedBlockAddr(0));
    t1.appendWork(200);
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    stats::PairMatrix pairs(2);
    SimStats s = simulate(baseConfig(2, 1), ts,
                          PlacementMap(2, {0, 1}), &pairs);
    EXPECT_EQ(s.totalMissCount(MissKind::Invalidation), 1u);
    EXPECT_EQ(s.totalInvalidationsSent(), 1u);
    EXPECT_EQ(s.procs[1].invalidationsSent, 1u);
    EXPECT_EQ(s.procs[0].invalidationsReceived, 1u);
    EXPECT_EQ(s.sharingCompulsoryMisses, 1u);
    EXPECT_DOUBLE_EQ(pairs.get(0, 1), 3.0);
    EXPECT_EQ(s.procs[1].writebacks, 1u);  // downgrade at t0's re-read
    EXPECT_EQ(s.executionTime(), 261u);
    EXPECT_EQ(s.dynamicSharingTraffic(), 3u);
}

TEST(Machine, UpgradeOnSharedHitInvalidatesRemoteCopy)
{
    // t0 loads X (Exclusive), t1 loads X (both Shared), t0 stores X:
    // an upgrade, not a miss; t1's copy dies.
    TraceSet ts("upg");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendWork(100);
    t0.appendStore(sharedBlockAddr(0));
    ThreadTrace t1(1);
    t1.appendWork(10);
    t1.appendLoad(sharedBlockAddr(0));
    t1.appendWork(200);
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    SimStats s =
        simulate(baseConfig(2, 1), ts, PlacementMap(2, {0, 1}));
    EXPECT_EQ(s.totalUpgrades(), 1u);
    EXPECT_EQ(s.procs[0].upgrades, 1u);
    EXPECT_EQ(s.totalInvalidationsSent(), 1u);
    EXPECT_EQ(s.procs[1].invalidationsReceived, 1u);
    // The upgrade is a hit, not a miss.
    EXPECT_EQ(s.procs[0].hits, 1u);
    EXPECT_EQ(s.procs[0].totalMisses(), 1u);  // only the initial load
    EXPECT_EQ(s.procs[0].finishTime, 152u);
}

TEST(Machine, ConflictMissClassification)
{
    // Two addresses aliasing to the same frame (1 KB cache => blocks
    // 0 and 32 collide). Same thread evicts itself: intra-thread
    // conflict on the re-reference.
    TraceSet ts("conflict");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendLoad(sharedBlockAddr(32));  // evicts block 0
    t0.appendLoad(sharedBlockAddr(0));   // intra-thread conflict
    ts.addThread(std::move(t0));

    SimStats s = simulate(baseConfig(1, 1), ts, PlacementMap(1, {0}));
    EXPECT_EQ(s.totalMissCount(MissKind::Compulsory), 2u);
    EXPECT_EQ(s.totalMissCount(MissKind::IntraConflict), 1u);
}

TEST(Machine, InterThreadConflictOnSharedCache)
{
    // Co-located threads evict each other: inter-thread conflict.
    TraceSet ts("interconflict");
    ThreadTrace t0(0);
    t0.appendLoad(sharedBlockAddr(0));
    t0.appendWork(200);                 // let t1 run and evict
    t0.appendLoad(sharedBlockAddr(0));  // inter-thread conflict
    ThreadTrace t1(1);
    t1.appendLoad(sharedBlockAddr(32));  // evicts t0's block
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    SimStats s = simulate(baseConfig(1, 2), ts, PlacementMap(1, {0, 0}));
    EXPECT_EQ(s.totalMissCount(MissKind::InterConflict), 1u);
}

TEST(Machine, PendingThreadsRunAfterContextFrees)
{
    // Two threads, one context: they run back to back.
    TraceSet ts("queue");
    ThreadTrace t0(0);
    t0.appendWork(10);
    ThreadTrace t1(1);
    t1.appendWork(20);
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));

    SimStats s = simulate(baseConfig(1, 1), ts, PlacementMap(1, {0, 0}));
    const auto &p = s.procs[0];
    EXPECT_EQ(p.busyCycles, 30u);
    EXPECT_EQ(p.finishTime, 30u);
    EXPECT_EQ(p.idleCycles, 0u);
}

TEST(Machine, EmptyProcessorFinishesAtZero)
{
    TraceSet ts("lop");
    ThreadTrace t0(0);
    t0.appendWork(5);
    ts.addThread(std::move(t0));
    SimStats s = simulate(baseConfig(2, 1), ts, PlacementMap(2, {0}));
    EXPECT_EQ(s.procs[1].finishTime, 0u);
    EXPECT_EQ(s.procs[1].instructions, 0u);
    EXPECT_EQ(s.executionTime(), 5u);
}

TEST(Machine, ConfigMismatchesAreFatal)
{
    TraceSet ts("bad");
    ThreadTrace t0(0);
    t0.appendWork(1);
    ts.addThread(std::move(t0));
    // Placement processor count != config processor count.
    EXPECT_THROW(simulate(baseConfig(2, 1), ts, PlacementMap(1, {0})),
                 util::FatalError);
    // Placement thread count != trace thread count.
    EXPECT_THROW(
        simulate(baseConfig(1, 1), ts, PlacementMap(1, {0, 0})),
        util::FatalError);
}

TEST(Machine, RunTwiceIsFatal)
{
    TraceSet ts("once");
    ThreadTrace t0(0);
    t0.appendWork(1);
    ts.addThread(std::move(t0));
    Machine m(baseConfig(1, 1), ts, PlacementMap(1, {0}));
    m.run();
    EXPECT_THROW(m.run(), util::FatalError);
}

// ----------------------------------------------------------- properties

/** Random trace set over a small shared pool + private pools. */
TraceSet
randomTraces(util::Rng &rng, uint32_t threads, uint32_t events)
{
    TraceSet ts("random");
    for (uint32_t tid = 0; tid < threads; ++tid) {
        ThreadTrace t(tid);
        for (uint32_t e = 0; e < events; ++e) {
            switch (rng.nextBelow(4)) {
              case 0:
                t.appendWork(1 + rng.nextBelow(30));
                break;
              case 1:
                t.appendLoad(AddressSpace::sharedWord(
                    rng.nextBelow(512)));
                break;
              case 2:
                t.appendStore(AddressSpace::sharedWord(
                    rng.nextBelow(512)));
                break;
              default:
                t.appendLoad(AddressSpace::privateWord(
                    tid, rng.nextBelow(256)));
                break;
            }
        }
        ts.addThread(std::move(t));
    }
    return ts;
}

class MachineProperty : public ::testing::TestWithParam<int>
{};

TEST_P(MachineProperty, InvariantsHoldOnRandomWorkloads)
{
    util::Rng rng(5000 + GetParam());
    uint32_t threads = 2 + static_cast<uint32_t>(rng.nextBelow(6));
    uint32_t procs = 1 + static_cast<uint32_t>(rng.nextBelow(threads));
    uint32_t ctxs = 1 + static_cast<uint32_t>(rng.nextBelow(4));
    TraceSet ts = randomTraces(rng, threads, 150);

    std::vector<uint32_t> procOf(threads);
    for (uint32_t i = 0; i < threads; ++i)
        procOf[i] = static_cast<uint32_t>(rng.nextBelow(procs));
    PlacementMap map(procs, procOf);

    SimStats s = simulate(baseConfig(procs, ctxs), ts, map);

    uint64_t totalInstr = 0, totalRefs = 0;
    for (uint32_t p = 0; p < procs; ++p) {
        const auto &ps = s.procs[p];
        // Cycle identity.
        EXPECT_EQ(ps.busyCycles + ps.switchCycles + ps.idleCycles,
                  ps.finishTime)
            << "proc " << p;
        // Reference conservation.
        EXPECT_EQ(ps.hits + ps.totalMisses(), ps.memRefs);
        EXPECT_EQ(ps.busyCycles, ps.instructions);  // hitLatency == 1
        totalInstr += ps.instructions;
        totalRefs += ps.memRefs;
    }
    EXPECT_EQ(totalInstr, ts.totalInstructions());
    EXPECT_EQ(totalRefs, ts.totalMemRefs());
    // Execution time can never beat the longest thread.
    uint64_t longest = 0;
    for (const auto &t : ts.threads())
        longest = std::max(longest, t.instructionCount());
    EXPECT_GE(s.executionTime(), longest);
}

TEST_P(MachineProperty, DeterministicAcrossRuns)
{
    util::Rng rng(9000 + GetParam());
    TraceSet ts = randomTraces(rng, 4, 100);
    PlacementMap map(2, {0, 1, 0, 1});
    SimStats a = simulate(baseConfig(2, 2), ts, map);
    SimStats b = simulate(baseConfig(2, 2), ts, map);
    EXPECT_EQ(a.executionTime(), b.executionTime());
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(a.totalMissCount(static_cast<MissKind>(k)),
                  b.totalMissCount(static_cast<MissKind>(k)));
    }
    EXPECT_EQ(a.totalInvalidationsSent(), b.totalInvalidationsSent());
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, MachineProperty,
                         ::testing::Range(0, 15));

TEST(Machine, InfiniteCacheEliminatesConflictMisses)
{
    // With an 8 MB cache and a small footprint, only compulsory and
    // invalidation misses remain (Section 4.3).
    util::Rng rng(4242);
    TraceSet ts = randomTraces(rng, 4, 300);
    PlacementMap map(2, {0, 0, 1, 1});
    SimConfig cfg = baseConfig(2, 2).withInfiniteCache();
    SimStats s = simulate(cfg, ts, map);
    EXPECT_EQ(s.totalMissCount(MissKind::IntraConflict), 0u);
    EXPECT_EQ(s.totalMissCount(MissKind::InterConflict), 0u);
    EXPECT_GT(s.totalMissCount(MissKind::Compulsory), 0u);
}

TEST(Machine, AssociativityCuresInterThreadThrashing)
{
    // The paper's Patch anomaly (Section 4.1): two co-located threads
    // repeatedly conflict on the same cache set and thrash; the paper
    // notes set-associative caching would address it. Reproduce with
    // two threads alternating over aliasing blocks.
    TraceSet ts("thrash");
    ThreadTrace t0(0);
    ThreadTrace t1(1);
    for (int i = 0; i < 50; ++i) {
        t0.appendLoad(sharedBlockAddr(0));
        t0.appendWork(60);
        t1.appendLoad(sharedBlockAddr(32));  // same set, 32-set cache
        t1.appendWork(60);
    }
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));
    PlacementMap map(1, {0, 0});

    SimConfig direct = baseConfig(1, 2);
    SimStats dm = simulate(direct, ts, map);
    EXPECT_GT(dm.totalMissCount(MissKind::InterConflict), 40u);

    SimConfig twoWay = baseConfig(1, 2);
    twoWay.associativity = 2;
    SimStats sa = simulate(twoWay, ts, map);
    EXPECT_EQ(sa.totalMissCount(MissKind::InterConflict), 0u);
    EXPECT_EQ(sa.totalMissCount(MissKind::Compulsory), 2u);
    // Much of the thrash latency hides behind the other context, but
    // every thrash-induced miss still costs a pipeline drain;
    // associativity removes both.
    EXPECT_LT(sa.executionTime(), dm.executionTime());
    EXPECT_LT(sa.procs[0].switchCycles, dm.procs[0].switchCycles);
}

TEST(Machine, AssociativityPreservesInvariants)
{
    util::Rng rng(31415);
    TraceSet ts = randomTraces(rng, 4, 300);
    PlacementMap map(2, {0, 1, 0, 1});
    for (uint32_t assoc : {1u, 2u, 4u}) {
        SimConfig cfg = baseConfig(2, 2);
        cfg.associativity = assoc;
        SimStats s = simulate(cfg, ts, map);
        for (const auto &ps : s.procs) {
            EXPECT_EQ(ps.busyCycles + ps.switchCycles + ps.idleCycles,
                      ps.finishTime);
            EXPECT_EQ(ps.hits + ps.totalMisses(), ps.memRefs);
        }
    }
}

TEST(Machine, SmallerCacheNeverHasFewerMisses)
{
    util::Rng rng(777);
    TraceSet ts = randomTraces(rng, 4, 400);
    PlacementMap map(2, {0, 0, 1, 1});
    SimConfig small = baseConfig(2, 2);
    small.cacheBytes = 512;
    SimConfig big = baseConfig(2, 2);
    big.cacheBytes = 64 * 1024;
    uint64_t smallMisses = simulate(small, ts, map).totalMisses();
    uint64_t bigMisses = simulate(big, ts, map).totalMisses();
    EXPECT_GE(smallMisses, bigMisses);
}

// ------------------------------------------ event tree vs. argmin scan

/** The event selection the tree replaced, kept as the reference. */
struct ScanPick
{
    uint64_t now;      //!< earliest time, kNoEvent when none
    uint32_t p;        //!< its processor (lowest id among equal times)
    uint64_t horizon;  //!< the runner-up's time, by value
};

ScanPick
argminScan(const std::vector<uint64_t> &times)
{
    ScanPick pick{EventTree::kNoEvent, 0, EventTree::kNoEvent};
    for (uint32_t i = 0; i < times.size(); ++i) {
        uint64_t s = times[i];
        if (s < pick.now) {
            pick.horizon = pick.now;
            pick.now = s;
            pick.p = i;
        } else if (s < pick.horizon) {
            pick.horizon = s;
        }
    }
    return pick;
}

class EventTreeVsScan : public ::testing::TestWithParam<uint32_t>
{};

// Random yields (often to an equal time, sometimes to no event or to
// the largest packable time), bulk reschedules with rebuilds, and
// bare rebuilds; after every step the tree's winner and horizon must
// be the scan's.
TEST_P(EventTreeVsScan, WinnerAndHorizonMatchTheScan)
{
    const uint32_t procs = GetParam();
    util::Rng rng(procs);
    std::vector<uint64_t> times(procs, EventTree::kNoEvent);
    EventTree tree(procs);
    auto randomTime = [&](uint64_t from) -> uint64_t {
        switch (rng.nextBelow(16)) {
          case 0:
            return EventTree::kNoEvent;
          case 1:
            return EventTree::kTimeLimit - 1 - rng.nextBelow(2);
          default:  // equal times are common
            return std::min(from + rng.nextBelow(4),
                            EventTree::kTimeLimit - 1);
        }
    };
    for (int step = 0; step < 4000; ++step) {
        const ScanPick want = argminScan(times);
        ASSERT_EQ(tree.winnerTime(), want.now) << "step " << step;
        ASSERT_EQ(tree.winner(), want.p) << "step " << step;
        ASSERT_EQ(tree.horizon(), want.horizon) << "step " << step;

        const uint64_t op = rng.nextBelow(32);
        if (want.now == EventTree::kNoEvent || op == 0) {
            // Bulk reschedule (a barrier release), then rebuild.
            const uint64_t moves = 1 + rng.nextBelow(procs);
            for (uint64_t k = 0; k < moves; ++k)
                times[rng.nextBelow(procs)] = randomTime(rng.nextBelow(8));
            tree.rebuild(times);
        } else if (op == 1) {
            tree.rebuild(times);
        } else {
            // The winner's chain ends: yield or go idle.
            const uint64_t t = randomTime(want.now);
            times[want.p] = t;
            tree.replayWinner(t);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, EventTreeVsScan,
                         ::testing::Values(1u, 2u, 3u, 8u, 129u, 1024u));

TEST(EventTree, TimesBeyondTheKeyRangePanic)
{
    EventTree tree(8);
    std::vector<uint64_t> times(8, 5);
    tree.rebuild(times);
    // 2^54 - 1 packs to the no-event time, so it is out of range too.
    EXPECT_THROW(tree.replayWinner(1ull << 54), util::PanicError);
    EXPECT_THROW(tree.replayWinner(EventTree::kTimeLimit),
                 util::PanicError);
    times[3] = 1ull << 54;
    EXPECT_THROW(tree.rebuild(times), util::PanicError);
    times[3] = EventTree::kTimeLimit - 1;  // the largest real time
    tree.rebuild(times);
    EXPECT_EQ(tree.winnerTime(), 5u);
    EXPECT_EQ(tree.horizon(), 5u);
}

TEST(Machine, EventTimesBeyondTheKeyRangePanic)
{
    // Processor 0's first chain runs 2^54 cycles of work and yields to
    // processor 1 at a time the event tree cannot hold.
    TraceSet ts("far");
    ThreadTrace t0(0);
    t0.appendWork(1ull << 54);
    t0.appendLoad(sharedBlockAddr(0));
    ts.addThread(std::move(t0));
    ThreadTrace t1(1);
    t1.appendWork(1);
    t1.appendLoad(sharedBlockAddr(1));
    ts.addThread(std::move(t1));
    EXPECT_THROW(simulate(baseConfig(2, 1), ts, PlacementMap(2, {0, 1})),
                 util::PanicError);
}

} // namespace
} // namespace tsp::sim
