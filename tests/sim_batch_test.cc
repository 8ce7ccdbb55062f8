/**
 * @file
 * Batched lockstep engine tests: every lane of a BatchMachine —
 * materialized or streaming, any lane count, any chain quantum — must
 * produce statistics bit-identical to a scalar simulate() over the
 * same inputs; a failing lane degrades alone while its siblings stay
 * exact; and a streaming batch's resident window stays O(chunk x
 * lanes) even when the trace is far larger (the memory bound the
 * pipeline exists for).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/placement_map.h"
#include "fault/fault.h"
#include "sim/batch_machine.h"
#include "sim/machine.h"
#include "trace/chunk_source.h"
#include "trace/trace_set.h"
#include "util/error.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace tsp::sim {
namespace {

using placement::PlacementMap;

/** Disarms on entry and exit so a failing test cannot leak a fault. */
class DisarmedScope
{
  public:
    DisarmedScope() { fault::disarm(); }
    ~DisarmedScope() { fault::disarm(); }
};

workload::AppProfile
batchProfile(uint32_t threads = 8)
{
    workload::AppProfile p;
    p.name = "batch-test";
    p.threads = threads;
    p.meanLength = 9'000;
    p.lengthDevPct = 25.0;
    p.phases = 3;
    p.barriers = true;
    p.globalFrac = 0.4;
    p.neighborFrac = 0.2;
    p.mailboxFrac = 0.2;
    p.sliceFrac = 0.2;
    p.globalWriteMode = workload::GlobalWriteMode::Migratory;
    p.seed = 17;
    return p;
}

SimConfig
laneConfig(uint32_t procs, uint32_t threads)
{
    SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = (threads + procs - 1) / procs;
    cfg.cacheBytes = 4096;
    cfg.blockBytes = 32;
    return cfg;
}

PlacementMap
roundRobin(uint32_t threads, uint32_t procs)
{
    std::vector<uint32_t> assign(threads);
    for (uint32_t t = 0; t < threads; ++t)
        assign[t] = t % procs;
    return PlacementMap(procs, assign);
}

PlacementMap
blocked(uint32_t threads, uint32_t procs)
{
    std::vector<uint32_t> assign(threads);
    uint32_t per = (threads + procs - 1) / procs;
    for (uint32_t t = 0; t < threads; ++t)
        assign[t] = t / per;
    return PlacementMap(procs, assign);
}

/**
 * Serialize every statistic a lane reports. SimStats has no
 * operator==; byte-identical fingerprints are the parity oracle.
 */
std::string
statsFingerprint(const SimStats &s)
{
    std::ostringstream os;
    os.precision(17);  // coherence-pair rates are doubles
    os << "t=" << s.executionTime() << '\n';
    for (size_t i = 0; i < s.procs.size(); ++i) {
        const ProcessorStats &p = s.procs[i];
        os << 'p' << i << ' ' << p.busyCycles << ' ' << p.switchCycles
           << ' ' << p.idleCycles << ' ' << p.finishTime << ' '
           << p.barrierCycles << ' ' << p.instructions << ' '
           << p.memRefs << ' ' << p.hits;
        for (uint64_t m : p.misses)
            os << ' ' << m;
        os << ' ' << p.upgrades << ' ' << p.invalidationsSent << ' '
           << p.invalidationsReceived << ' ' << p.writebacks << '\n';
    }
    os << "pairs";
    for (size_t i = 0; i < s.coherencePairs.size(); ++i) {
        for (size_t j = 0; j < s.coherencePairs.size(); ++j)
            os << ' ' << s.coherencePairs.get(i, j);
    }
    os << "\nshc=" << s.sharingCompulsoryMisses
       << " net=" << s.networkTransactions << '/'
       << s.networkQueueingCycles << '/' << s.networkMaxQueueing
       << '\n';
    return os.str();
}

/** The lane specs for an N-lane batch: varied machines + placements. */
std::vector<BatchLane>
makeLanes(size_t n, uint32_t threads)
{
    const uint32_t procChoices[] = {2, 4, 8, 3, 16, 6};
    std::vector<BatchLane> lanes;
    for (size_t i = 0; i < n; ++i) {
        uint32_t procs = procChoices[i % 6];
        SimConfig cfg = laneConfig(procs, threads);
        if (i % 4 == 2)
            cfg.memoryLatency = 80;  // vary the architecture too
        PlacementMap map = (i % 2 == 0) ? roundRobin(threads, procs)
                                        : blocked(threads, procs);
        lanes.push_back({cfg, std::move(map)});
    }
    return lanes;
}

/** Scalar oracle fingerprints for @p lanes over @p traces. */
std::vector<std::string>
scalarFingerprints(const std::vector<BatchLane> &lanes,
                   const trace::TraceSet &traces)
{
    std::vector<std::string> prints;
    for (const BatchLane &lane : lanes) {
        prints.push_back(statsFingerprint(
            simulate(lane.cfg, traces, lane.placement)));
    }
    return prints;
}

// ----------------------------------------------------------- parity

TEST(BatchMachine, MaterializedLanesMatchScalarAtEveryWidth)
{
    uint32_t threads = 8;
    trace::TraceSet traces =
        workload::generateTraces(batchProfile(threads), 1);

    for (size_t n : {1u, 2u, 3u, 8u, 16u}) {
        SCOPED_TRACE("lanes=" + std::to_string(n));
        std::vector<BatchLane> lanes = makeLanes(n, threads);
        std::vector<std::string> expected =
            scalarFingerprints(lanes, traces);

        BatchMachine machine(std::move(lanes), traces);
        std::vector<LaneResult> results = machine.run();
        ASSERT_EQ(results.size(), n);
        for (size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(statsFingerprint(results[i].stats), expected[i]);
        }
    }
}

TEST(BatchMachine, StreamingLanesMatchScalar)
{
    workload::AppProfile p = batchProfile();
    trace::TraceSet traces = workload::generateTraces(p, 1);

    for (size_t n : {1u, 3u, 8u}) {
        SCOPED_TRACE("lanes=" + std::to_string(n));
        std::vector<BatchLane> lanes = makeLanes(n, p.threads);
        std::vector<std::string> expected =
            scalarFingerprints(lanes, traces);

        workload::AppStreamFactory factory(p, 1);
        trace::SharedTraceStream stream(
            factory, static_cast<uint32_t>(n), /*chunkEvents=*/512);
        BatchMachine machine(std::move(lanes), stream);
        std::vector<LaneResult> results = machine.run();
        ASSERT_EQ(results.size(), n);
        for (size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(statsFingerprint(results[i].stats), expected[i]);
        }
        EXPECT_GT(stream.refillCount(), 0u);
    }
}

TEST(BatchMachine, ChainQuantumDoesNotChangeResults)
{
    uint32_t threads = 8;
    trace::TraceSet traces =
        workload::generateTraces(batchProfile(threads), 1);
    std::vector<BatchLane> lanes = makeLanes(4, threads);
    std::vector<std::string> expected =
        scalarFingerprints(lanes, traces);

    for (uint64_t quantum : {1ull, 37ull, 100'000'000ull}) {
        SCOPED_TRACE("quantum=" + std::to_string(quantum));
        BatchMachine machine(makeLanes(4, threads), traces);
        std::vector<LaneResult> results = machine.run(quantum);
        for (size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(statsFingerprint(results[i].stats), expected[i]);
        }
    }
}

// --------------------------------------------------- lane isolation

TEST(BatchMachine, FailedLaneDegradesAloneMaterialized)
{
    DisarmedScope scope;
    uint32_t threads = 8;
    trace::TraceSet traces =
        workload::generateTraces(batchProfile(threads), 1);
    std::vector<BatchLane> lanes = makeLanes(2, threads);
    std::string expected =
        statsFingerprint(simulate(lanes[1].cfg, traces,
                                  lanes[1].placement));

    // Lane 0 hits the batch.lane site first (lanes construct in
    // order); lane 1 must be untouched, bit for bit.
    fault::arm("batch.lane:1:error");
    BatchMachine machine(std::move(lanes), traces);
    std::vector<LaneResult> results = machine.run();
    fault::disarm();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("injected fault"),
              std::string::npos);
    ASSERT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(statsFingerprint(results[1].stats), expected);
}

TEST(BatchMachine, ChunkRefillFaultDegradesOneStreamingLane)
{
    DisarmedScope scope;
    workload::AppProfile p = batchProfile();
    trace::TraceSet traces = workload::generateTraces(p, 1);
    std::vector<BatchLane> lanes = makeLanes(2, p.threads);
    std::string expected =
        statsFingerprint(simulate(lanes[1].cfg, traces,
                                  lanes[1].placement));

    // The first window refill happens while lane 0's machine primes
    // its cursors; the stream itself stays healthy (the fault fires
    // before any window state changes), so lane 1 still consumes the
    // complete trace.
    fault::arm("trace.chunk_refill:1:error");
    workload::AppStreamFactory factory(p, 1);
    trace::SharedTraceStream stream(factory, 2, /*chunkEvents=*/512);
    BatchMachine machine(std::move(lanes), stream);
    std::vector<LaneResult> results = machine.run();
    fault::disarm();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("injected fault"),
              std::string::npos);
    ASSERT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(statsFingerprint(results[1].stats), expected);
}

// ----------------------------------------------------- memory bound

/** High-water window mark of one streamed batch run over @p p. */
uint64_t
streamedHighWater(const workload::AppProfile &p, size_t chunkEvents)
{
    std::vector<BatchLane> lanes = makeLanes(2, p.threads);
    // Producer batches well under the chunk budget, so resident
    // chunks stay near chunkEvents each.
    workload::AppStreamFactory factory(p, 1, /*stepsPerBatch=*/128);
    trace::SharedTraceStream stream(factory, 2, chunkEvents);
    BatchMachine machine(std::move(lanes), stream);
    std::vector<LaneResult> results = machine.run();
    for (const LaneResult &r : results) {
        if (!r.ok)
            ADD_FAILURE() << r.error;
    }
    EXPECT_GT(stream.refillCount(), 10u * p.threads);
    return stream.windowEventsHighWater();
}

TEST(BatchMachine, StreamingWindowStaysBoundedOnLongTraces)
{
    // A trace far larger than the chunk budget (>= 10x per thread)
    // must stream through a window bounded by O(chunk x lanes) — the
    // acceptance bound for the chunked pipeline's memory claim.
    workload::AppProfile p = batchProfile(4);
    p.meanLength = 120'000;
    constexpr size_t kChunk = 512;

    trace::TraceSet traces = workload::generateTraces(p, 1);
    for (uint32_t tid = 0; tid < p.threads; ++tid) {
        ASSERT_GE(traces.thread(tid).events().size(), 10 * kChunk)
            << "trace too small to exercise the streaming regime";
    }

    // Lockstep keeps the fast/slow spread to about a chain quantum of
    // references; 12 chunks per thread is a loose constant ceiling,
    // still far smaller than the materialized trace.
    uint64_t highWater = streamedHighWater(p, kChunk);
    EXPECT_LE(highWater, 12 * p.threads * kChunk);

    // The sharper half of the O(chunk x lanes) claim: the window does
    // not grow with trace length. Doubling the trace must leave the
    // high-water mark at the same scale (slack for the different
    // trace, not for growth — 2x would fail).
    workload::AppProfile doubled = p;
    doubled.meanLength = 240'000;
    uint64_t highWaterDoubled = streamedHighWater(doubled, kChunk);
    EXPECT_LE(highWaterDoubled,
              highWater + (highWater + 3) / 4)
        << "streaming window grew with trace length";
}

// ----------------------------------------------------------- misuse

TEST(BatchMachine, GuardsAgainstMisuse)
{
    uint32_t threads = 4;
    workload::AppProfile p = batchProfile(threads);
    trace::TraceSet traces = workload::generateTraces(p, 1);

    EXPECT_THROW(BatchMachine({}, traces), util::FatalError);

    // Stream built for a different lane count.
    workload::AppStreamFactory factory(p, 1);
    trace::SharedTraceStream stream(factory, 3);
    EXPECT_THROW(BatchMachine(makeLanes(2, threads), stream),
                 util::FatalError);

    // run() is single-shot.
    BatchMachine machine(makeLanes(1, threads), traces);
    machine.run();
    EXPECT_THROW(machine.run(), util::FatalError);

    BatchMachine zeroQuantum(makeLanes(1, threads), traces);
    EXPECT_THROW(zeroQuantum.run(0), util::FatalError);
}

} // namespace
} // namespace tsp::sim
