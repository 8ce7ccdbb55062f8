/**
 * @file
 * Tests for the coherence-traffic probe (Section 4.2): one thread per
 * processor, thread-pair attribution, the static-vs-dynamic gap on
 * workloads with sequential sharing, and attribution as pure
 * observation (a run with the pair sink reports what one without it
 * does).
 */

#include <gtest/gtest.h>

#include "analysis/static_analysis.h"
#include "core/placement_map.h"
#include "experiment/configs.h"
#include "sim/coherence_probe.h"
#include "sim/machine.h"
#include "trace/address_space.h"
#include "trace/trace_set.h"
#include "util/error.h"
#include "workload/app_profile.h"
#include "workload/generator.h"

namespace tsp::sim {
namespace {

using trace::AddressSpace;
using trace::ThreadTrace;
using trace::TraceSet;

SimConfig
probeBase()
{
    SimConfig cfg;
    cfg.cacheBytes = 8 * 1024;
    cfg.blockBytes = 32;
    return cfg;
}

TEST(CoherenceProbe, PingPongWritersAttributeToThePair)
{
    // Threads 0 and 1 alternately write one block, far apart in time;
    // thread 2 never touches it.
    TraceSet ts("pingpong");
    uint64_t X = AddressSpace::sharedWord(0);
    ThreadTrace t0(0);
    ThreadTrace t1(1);
    ThreadTrace t2(2);
    for (int round = 0; round < 4; ++round) {
        t0.appendStore(X);
        t0.appendWork(500);
        t1.appendWork(250);
        t1.appendStore(X);
        t1.appendWork(250);
    }
    t2.appendWork(100);
    t2.appendLoad(AddressSpace::privateWord(2, 0));
    ts.addThread(std::move(t0));
    ts.addThread(std::move(t1));
    ts.addThread(std::move(t2));

    auto probe = measureCoherenceTraffic(ts, probeBase());
    EXPECT_GT(probe.pairs.get(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(probe.pairs.get(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(probe.pairs.get(1, 2), 0.0);
    // Every write after the first either invalidates the other's copy
    // or misses on an invalidated block.
    EXPECT_GT(probe.stats.totalInvalidationsSent(), 0u);
}

TEST(CoherenceProbe, OverridesProcessorsAndContexts)
{
    TraceSet ts("tiny");
    for (uint32_t i = 0; i < 5; ++i) {
        ThreadTrace t(i);
        t.appendWork(10);
        ts.addThread(std::move(t));
    }
    auto probe = measureCoherenceTraffic(ts, probeBase());
    EXPECT_EQ(probe.stats.procs.size(), 5u);
    EXPECT_EQ(probe.pairs.size(), 5u);
}

TEST(CoherenceProbe, EmptyOrHugeSetsAreFatal)
{
    TraceSet empty("none");
    EXPECT_THROW(measureCoherenceTraffic(empty, probeBase()),
                 util::FatalError);
}

TEST(CoherenceProbe, ReadOnlySharingProducesNoInvalidations)
{
    // All threads read the same blocks: compulsory sharing traffic
    // only, zero invalidations.
    TraceSet ts("readonly");
    for (uint32_t i = 0; i < 4; ++i) {
        ThreadTrace t(i);
        t.appendWork(10 * i);
        for (uint64_t w = 0; w < 64; ++w)
            t.appendLoad(AddressSpace::sharedWord(w));
        ts.addThread(std::move(t));
    }
    auto probe = measureCoherenceTraffic(ts, probeBase());
    EXPECT_EQ(probe.stats.totalInvalidationsSent(), 0u);
    EXPECT_EQ(probe.stats.totalMissCount(MissKind::Invalidation), 0u);
    EXPECT_GT(probe.stats.sharingCompulsoryMisses, 0u);
}

TEST(CoherenceProbe, DynamicTrafficOrdersOfMagnitudeBelowStatic)
{
    // The paper's central measurement (Table 4): on a generated
    // workload with sequential sharing, runtime coherence traffic is
    // far below the static shared-reference count.
    workload::AppProfile p;
    p.name = "seqshare";
    p.threads = 8;
    p.meanLength = 40000;
    p.sharedRefFrac = 0.7;
    p.refsPerSharedAddr = 30.0;
    p.globalFrac = 1.0;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 11;
    auto traces = workload::generateTraces(p, 1);

    auto an = analysis::StaticAnalysis::analyze(traces);
    auto probe = measureCoherenceTraffic(traces, probeBase());

    double staticTotal = an.sharedRefs().total();
    double dynamicTotal =
        static_cast<double>(probe.stats.dynamicSharingTraffic());
    ASSERT_GT(dynamicTotal, 0.0);
    EXPECT_GT(staticTotal / dynamicTotal, 10.0)
        << "static " << staticTotal << " dynamic " << dynamicTotal;
}

TEST(CoherenceProbe, PairsFeedTotalConsistently)
{
    // Pair attribution never exceeds the total coherence events that
    // could be attributed (each event adds at most 1 to one pair).
    workload::AppProfile p;
    p.name = "attr";
    p.threads = 6;
    p.meanLength = 20000;
    p.sharedRefFrac = 0.5;
    p.refsPerSharedAddr = 10.0;
    p.globalFrac = 1.0;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 12;
    auto traces = workload::generateTraces(p, 1);
    auto probe = measureCoherenceTraffic(traces, probeBase());
    EXPECT_LE(probe.pairs.total(),
              static_cast<double>(
                  probe.stats.dynamicSharingTraffic()));
}

/** Every SimStats field of @p a equals @p b's. */
void
expectSameStats(const SimStats &a, const SimStats &b)
{
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (size_t p = 0; p < a.procs.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "proc " << p);
        const ProcessorStats &x = a.procs[p];
        const ProcessorStats &y = b.procs[p];
        EXPECT_EQ(x.busyCycles, y.busyCycles);
        EXPECT_EQ(x.switchCycles, y.switchCycles);
        EXPECT_EQ(x.idleCycles, y.idleCycles);
        EXPECT_EQ(x.finishTime, y.finishTime);
        EXPECT_EQ(x.barrierCycles, y.barrierCycles);
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.memRefs, y.memRefs);
        EXPECT_EQ(x.hits, y.hits);
        EXPECT_EQ(x.misses, y.misses);
        EXPECT_EQ(x.upgrades, y.upgrades);
        EXPECT_EQ(x.invalidationsSent, y.invalidationsSent);
        EXPECT_EQ(x.invalidationsReceived, y.invalidationsReceived);
        EXPECT_EQ(x.writebacks, y.writebacks);
    }
    EXPECT_EQ(a.sharingCompulsoryMisses, b.sharingCompulsoryMisses);
    EXPECT_EQ(a.profiledSharing, b.profiledSharing);
    const SharingProfile &pa = a.sharingProfile;
    const SharingProfile &pb = b.sharingProfile;
    EXPECT_EQ(pa.privateBlocks, pb.privateBlocks);
    EXPECT_EQ(pa.sharedBlocks, pb.sharedBlocks);
    EXPECT_EQ(pa.readOnlyShared, pb.readOnlyShared);
    EXPECT_EQ(pa.migratoryShared, pb.migratoryShared);
    EXPECT_EQ(pa.otherShared, pb.otherShared);
    EXPECT_EQ(pa.writeRunLength.count(), pb.writeRunLength.count());
    EXPECT_EQ(pa.writeRunLength.mean(), pb.writeRunLength.mean());
    EXPECT_EQ(pa.readRunLength.count(), pb.readRunLength.count());
    EXPECT_EQ(pa.readRunLength.mean(), pb.readRunLength.mean());
    EXPECT_EQ(a.networkTransactions, b.networkTransactions);
    EXPECT_EQ(a.networkQueueingCycles, b.networkQueueingCycles);
    EXPECT_EQ(a.networkMaxQueueing, b.networkMaxQueueing);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l2Writebacks, b.l2Writebacks);
    EXPECT_EQ(a.l2BackInvalidations, b.l2BackInvalidations);
}

TEST(CoherenceProbe, AttributionIsObservationOnly)
{
    // One multithreaded cell (8 threads on 4 processors x 2 contexts)
    // under every memory system, with and without the pair sink.
    workload::AppProfile p;
    p.name = "observe";
    p.threads = 8;
    p.meanLength = 20000;
    p.sharedRefFrac = 0.5;
    p.refsPerSharedAddr = 10.0;
    p.globalFrac = 1.0;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 13;
    auto traces = workload::generateTraces(p, 1);
    const placement::PlacementMap placement(4, {0, 1, 2, 3, 0, 1, 2, 3});

    for (experiment::MemSystem ms : experiment::allMemSystems()) {
        SCOPED_TRACE(experiment::memSystemName(ms));
        SimConfig cfg = probeBase();
        cfg.processors = 4;
        cfg.contexts = 2;
        cfg.profileSharing = true;
        experiment::applyMemSystem(cfg, ms);

        SimStats plain = simulate(cfg, traces, placement);
        stats::PairMatrix pairs(traces.threadCount());
        SimStats observed = simulate(cfg, traces, placement, &pairs);
        EXPECT_GT(pairs.total(), 0.0);
        expectSameStats(plain, observed);
    }
}

TEST(CoherenceProbe, MissizedSinkIsFatal)
{
    TraceSet ts("two");
    for (uint32_t i = 0; i < 2; ++i) {
        ThreadTrace t(i);
        t.appendWork(10);
        ts.addThread(std::move(t));
    }
    SimConfig cfg = probeBase();
    cfg.processors = 2;
    cfg.contexts = 1;
    stats::PairMatrix pairs(3);
    EXPECT_THROW(simulate(cfg, ts, placement::PlacementMap(2, {0, 1}),
                          &pairs),
                 util::FatalError);
}

} // namespace
} // namespace tsp::sim
