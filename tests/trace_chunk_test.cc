/**
 * @file
 * Chunk-boundary torture tests for the streaming trace pipeline: a
 * TraceCursor over a ChunkFeed must yield exactly the chunk sequence
 * of the materialized trace no matter how the producer cuts its spans
 * (split work runs, empty spans, single-event spans), and
 * SharedTraceStream's windows must serve every lane the full sequence
 * while trimming chunks all lanes have passed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/address_space.h"
#include "trace/chunk_source.h"
#include "trace/thread_trace.h"
#include "trace/trace_set.h"
#include "workload/generator.h"
#include "workload/stream.h"

namespace tsp::trace {
namespace {

using workload::AppProfile;

/** ChunkFeed over a fixed list of spans (including empty ones). */
class SpanFeed : public ChunkFeed
{
  public:
    explicit SpanFeed(std::vector<std::vector<TraceEvent>> spans)
        : spans_(std::move(spans))
    {
    }

    bool
    next(const TraceEvent **begin, const TraceEvent **end) override
    {
        if (idx_ == spans_.size())
            return false;
        const std::vector<TraceEvent> &span = spans_[idx_++];
        *begin = span.data();
        *end = span.data() + span.size();
        return true;
    }

  private:
    std::vector<std::vector<TraceEvent>> spans_;
    size_t idx_ = 0;
};

/** Drain both cursors and require identical chunk sequences. */
void
expectSameChunks(TraceCursor streamed, TraceCursor reference)
{
    size_t n = 0;
    while (!streamed.done() && !reference.done()) {
        TraceCursor::Chunk a = streamed.next();
        TraceCursor::Chunk b = reference.next();
        ASSERT_EQ(a.work, b.work) << "chunk " << n;
        ASSERT_EQ(a.hasRef, b.hasRef) << "chunk " << n;
        ASSERT_EQ(a.isStore, b.isStore) << "chunk " << n;
        ASSERT_EQ(a.isBarrier, b.isBarrier) << "chunk " << n;
        ASSERT_EQ(a.addr, b.addr) << "chunk " << n;
        ++n;
    }
    EXPECT_TRUE(streamed.done());
    EXPECT_TRUE(reference.done());
    EXPECT_GT(n, 0u);
}

/** A profile small enough that full parity sweeps stay fast. */
AppProfile
tinyProfile()
{
    AppProfile p;
    p.name = "chunk-test";
    p.threads = 4;
    p.meanLength = 6'000;
    p.lengthDevPct = 20.0;
    p.phases = 3;
    p.barriers = true;
    p.globalFrac = 0.4;
    p.neighborFrac = 0.2;
    p.mailboxFrac = 0.2;
    p.sliceFrac = 0.2;
    p.seed = 99;
    return p;
}

// ----------------------------------------------------- span torture

TEST(TraceChunk, SplitWorkRunsMergeAcrossSpans)
{
    // Emit through one trace, draining mid-work-run so runs split
    // across span boundaries (drained runs cannot merge with later
    // appendWork calls).
    uint64_t a = AddressSpace::sharedWord(0);
    uint64_t b = AddressSpace::sharedWord(8);

    ThreadTrace src(0);
    std::vector<std::vector<TraceEvent>> spans;
    src.appendWork(5);
    spans.emplace_back();
    src.drainEventsTo(spans.back());
    src.appendWork(3);  // continues the run in a new span
    src.appendLoad(a);
    spans.emplace_back();
    src.drainEventsTo(spans.back());
    spans.emplace_back();  // empty span mid-stream
    src.appendStore(b);
    src.appendBarrier();
    src.appendWork(7);
    spans.emplace_back();
    src.drainEventsTo(spans.back());
    src.appendWork(2);  // trailing run split again
    spans.emplace_back();
    src.drainEventsTo(spans.back());

    // The drained stream really is cut differently: 2 work events for
    // what the merged trace stores as one.
    size_t streamedEvents = 0;
    for (const auto &span : spans)
        streamedEvents += span.size();

    ThreadTrace merged(0);
    merged.appendWork(8);
    merged.appendLoad(a);
    merged.appendStore(b);
    merged.appendBarrier();
    merged.appendWork(9);
    EXPECT_GT(streamedEvents, merged.events().size());

    // Counters describe the emission, drained or not.
    EXPECT_EQ(src.instructionCount(), merged.instructionCount());
    EXPECT_EQ(src.memRefCount(), merged.memRefCount());
    EXPECT_EQ(src.barrierCount(), merged.barrierCount());

    SpanFeed feed(spans);
    expectSameChunks(TraceCursor(feed), TraceCursor(merged));
}

TEST(TraceChunk, SingleEventAndEmptySpans)
{
    ThreadTrace merged(0);
    merged.appendLoad(AddressSpace::sharedWord(1));
    merged.appendWork(4);
    merged.appendStore(AddressSpace::sharedWord(2));
    merged.appendBarrier();

    // Every event in its own span, empty spans interleaved throughout
    // (including leading and trailing).
    std::vector<std::vector<TraceEvent>> spans;
    spans.emplace_back();
    for (const TraceEvent &e : merged.events()) {
        spans.push_back({e});
        spans.emplace_back();
    }

    SpanFeed feed(spans);
    expectSameChunks(TraceCursor(feed), TraceCursor(merged));
}

TEST(TraceChunk, AllSpansEmptyIsAnEmptyTrace)
{
    SpanFeed feed({{}, {}, {}});
    TraceCursor cursor(feed);
    EXPECT_TRUE(cursor.done());
}

// ------------------------------------------- shared stream parity

TEST(TraceChunk, StreamedChunksMatchMaterializedPerThread)
{
    AppProfile p = tinyProfile();
    TraceSet set = workload::generateTraces(p, 1);

    // Deliberately awkward granularities: tiny chunks, odd producer
    // batch size, so chunk boundaries land everywhere.
    workload::AppStreamFactory factory(p, 1, /*stepsPerBatch=*/7);
    SharedTraceStream stream(factory, 1, /*chunkEvents=*/64);
    TraceSource &lane = stream.lane(0);

    ASSERT_EQ(lane.threadCount(), set.threadCount());
    for (ThreadId tid = 0; tid < lane.threadCount(); ++tid) {
        SCOPED_TRACE("tid " + std::to_string(tid));
        expectSameChunks(lane.openThread(tid),
                         TraceCursor(set.thread(tid)));
    }
    EXPECT_GT(stream.refillCount(), 0u);
}

TEST(TraceChunk, SingleEventChunksStillMatch)
{
    AppProfile p = tinyProfile();
    p.threads = 2;
    p.meanLength = 1'500;
    TraceSet set = workload::generateTraces(p, 1);

    workload::AppStreamFactory factory(p, 1, /*stepsPerBatch=*/3);
    SharedTraceStream stream(factory, 1, /*chunkEvents=*/1);
    for (ThreadId tid = 0; tid < set.threadCount(); ++tid) {
        SCOPED_TRACE("tid " + std::to_string(tid));
        expectSameChunks(stream.lane(0).openThread(tid),
                         TraceCursor(set.thread(tid)));
    }
}

TEST(TraceChunk, CensusMatchesMaterialized)
{
    AppProfile p = tinyProfile();
    TraceSet set = workload::generateTraces(p, 1);

    workload::AppStreamFactory factory(p, 1);
    SharedTraceStream stream(factory, 2, 128);
    for (unsigned shift : {5u, 6u}) {
        const TraceSet::TouchedBlocks &streamed =
            stream.touchedBlocks(shift);
        const TraceSet::TouchedBlocks &materialized =
            set.touchedBlocks(shift);
        EXPECT_EQ(streamed.total, materialized.total);
        EXPECT_EQ(streamed.perThread, materialized.perThread);
    }
}

TEST(TraceChunk, RetiringTheLaggardReleasesTheWindow)
{
    AppProfile p = tinyProfile();
    p.threads = 2;

    // Small producer batches so chunks stay near the configured size
    // (the stream rounds a chunk up to whole producer batches).
    workload::AppStreamFactory factory(p, 1, /*stepsPerBatch=*/16);
    SharedTraceStream stream(factory, 2, /*chunkEvents=*/64);

    // Lane 0 drains thread 0 completely while lane 1 never moves:
    // every chunk of thread 0 stays resident, pinned by the laggard.
    ChunkFeed &feed = stream.feed(0, 0);
    const TraceEvent *begin = nullptr;
    const TraceEvent *end = nullptr;
    uint64_t events = 0;
    while (feed.next(&begin, &end))
        events += static_cast<uint64_t>(end - begin);
    EXPECT_GT(events, 0u);
    EXPECT_GE(stream.windowEventsNow(), events);

    // Retiring the laggard trims everything it was holding.
    stream.retireLane(1);
    stream.retireLane(0);
    EXPECT_EQ(stream.windowEventsNow(), 0u);
    EXPECT_GE(stream.windowEventsHighWater(), events);
    // Chunks are ~64 events plus at most one 16-step producer batch.
    EXPECT_GE(stream.refillCount(), events / 256);
    EXPECT_GT(stream.refillCount(), 1u);
}

} // namespace
} // namespace tsp::trace
