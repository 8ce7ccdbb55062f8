/**
 * @file
 * Streaming chunked trace pipeline. Instead of materializing whole
 * ThreadTraces up front, a ChunkProducer emits one thread's events in
 * bounded batches on demand, and a SharedTraceStream shares one
 * producer pass across several simulator lanes (sim::BatchMachine)
 * running in lockstep over the same workload:
 *
 *     workload generator (ChunkProducer per thread, via StreamFactory)
 *         -> SharedTraceStream (bounded per-thread chunk windows)
 *             -> per-lane TraceSource views
 *                 -> TraceCursor over the lane's trace::ChunkFeed
 *
 * A lane is a TraceSource like a materialized TraceSet
 * (trace/trace_set.h), so sim::Machine reads both through one input
 * path.
 *
 * Memory stays O(chunk x lanes): a chunk is dropped as soon as every
 * lane has moved past it, so the resident window per thread is the
 * spread between the fastest and slowest lane plus one chunk. The
 * lockstep scheduler keeps that spread small (docs/performance.md).
 *
 * Not thread-safe: one stream is driven from a single thread (the
 * thread running the owning BatchMachine).
 */

#ifndef TSP_TRACE_CHUNK_SOURCE_H
#define TSP_TRACE_CHUNK_SOURCE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "trace/thread_trace.h"
#include "trace/trace_set.h"

namespace tsp::trace {

/**
 * Produces one thread's events in bounded batches. Each produce()
 * appends the next batch to @p out and returns true; at end-of-trace
 * it appends nothing and returns false (and keeps returning false if
 * polled again). Batch sizes are producer-chosen; the stream
 * accumulates batches into chunks of its configured size.
 */
class ChunkProducer
{
  public:
    virtual ~ChunkProducer() = default;

    /** Append the next batch; false at end of trace (none appended). */
    virtual bool produce(std::vector<TraceEvent> &out) = 0;

    /**
     * Optional capability: deep-copy this producer mid-pass, so the
     * copy resumes from the same position independently. Snapshots
     * taken at batch boundaries let consumers seek into long traces
     * without replaying the prefix (sample::SeekIndex). Producers
     * without the capability return nullptr (the default).
     */
    virtual std::unique_ptr<ChunkProducer>
    clone() const
    {
        return nullptr;
    }
};

/**
 * A replayable application trace in producer form. openProducer()
 * starts a fresh deterministic pass over one thread: every open of the
 * same tid must replay the identical event sequence, which is what
 * lets the census pass and the simulation pass (and any retry) agree.
 */
class StreamFactory
{
  public:
    virtual ~StreamFactory() = default;

    /** Number of threads in the application. */
    virtual uint32_t threadCount() const = 0;

    /** Barriers thread @p tid will emit (known without replay). */
    virtual uint64_t barrierCount(ThreadId tid) const = 0;

    /** Open a fresh pass over thread @p tid. */
    virtual std::unique_ptr<ChunkProducer> openProducer(ThreadId tid) = 0;
};

/**
 * Fans one StreamFactory out to @p lanes independent TraceSource
 * views, buffering per-thread chunk windows so each lane sees the full
 * event sequence while only the [slowest lane, fastest lane] spread
 * stays resident.
 */
class SharedTraceStream
{
  public:
    /** Default chunk granularity, in events. */
    static constexpr size_t kDefaultChunkEvents = 4096;

    SharedTraceStream(StreamFactory &factory, uint32_t lanes,
                      size_t chunkEvents = kDefaultChunkEvents);

    /** Number of lane views. */
    uint32_t laneCount() const { return laneCount_; }

    /** Lane view @p lane (stable reference, owned by the stream). */
    TraceSource &lane(uint32_t lane);

    /**
     * The feed carrying thread @p tid's events to lane @p lane (stable
     * reference, owned by the stream). The lane's TraceSource wraps it
     * in a cursor; pull it directly only in place of that lane.
     */
    ChunkFeed &feed(uint32_t lane, ThreadId tid);

    /**
     * Census shared by all lanes: one dedicated producer pass per
     * thread on first call, memoized per shift.
     */
    const TraceSource::TouchedBlocks &touchedBlocks(unsigned blockShift);

    /**
     * Drop lane @p lane from the window accounting: its positions no
     * longer hold chunks resident. Called when a lane finishes or
     * fails, so a dead laggard cannot make the windows grow without
     * bound. The lane's feeds must not be pulled afterwards.
     */
    void retireLane(uint32_t lane);

    /** Chunks pulled from producers so far. */
    uint64_t refillCount() const { return refills_; }

    /** Events currently resident across all thread windows. */
    size_t windowEventsNow() const { return windowEventsNow_; }

    /** Largest windowEventsNow() ever observed: the memory bound. */
    size_t
    windowEventsHighWater() const
    {
        return windowEventsHighWater_;
    }

  private:
    /** ChunkFeed for one (lane, thread) pair. */
    class LaneFeed : public ChunkFeed
    {
      public:
        LaneFeed(SharedTraceStream &owner, uint32_t lane, ThreadId tid)
            : owner_(&owner), lane_(lane), tid_(tid)
        {
        }

        bool
        next(const TraceEvent **begin, const TraceEvent **end) override
        {
            return owner_->feedNext(lane_, tid_, begin, end);
        }

      private:
        SharedTraceStream *owner_;
        uint32_t lane_;
        ThreadId tid_;
    };

    /** TraceSource view of one lane. */
    class LaneSource : public TraceSource
    {
      public:
        LaneSource(SharedTraceStream &owner, uint32_t lane)
            : owner_(&owner), lane_(lane)
        {
        }

        uint32_t
        threadCount() const override
        {
            return owner_->factory_.threadCount();
        }

        uint64_t
        barrierCount(ThreadId tid) const override
        {
            return owner_->factory_.barrierCount(tid);
        }

        const TouchedBlocks &
        touchedBlocks(unsigned blockShift) const override
        {
            return owner_->touchedBlocks(blockShift);
        }

        /** Call at most once per thread: the feed is the lane's. */
        TraceCursor
        openThread(ThreadId tid) const override
        {
            return TraceCursor(owner_->feed(lane_, tid));
        }

      private:
        SharedTraceStream *owner_;
        uint32_t lane_;
    };

    /**
     * One thread's chunk window: chunks [loIdx, hiIdx) are resident;
     * laneNext[l] is the next chunk index lane l will request (so the
     * lane may still be consuming laneNext[l] - 1). std::deque of
     * vectors: push/pop at the ends never moves the other chunks, so
     * spans handed to cursors stay valid until trimmed.
     */
    struct ThreadWindow
    {
        std::unique_ptr<ChunkProducer> producer;
        bool eof = false;
        std::deque<std::vector<TraceEvent>> chunks;
        size_t loIdx = 0;
        size_t hiIdx = 0;
        std::vector<size_t> laneNext;
    };

    bool feedNext(uint32_t lane, ThreadId tid, const TraceEvent **begin,
                  const TraceEvent **end);

    /** Pull one more chunk into @p w; false at end of trace. */
    bool refill(ThreadWindow &w, ThreadId tid);

    /** Drop chunks every lane has moved past. */
    void trim(ThreadWindow &w);

    StreamFactory &factory_;
    uint32_t laneCount_;
    size_t chunkEvents_;
    std::vector<uint8_t> retired_;  //!< 1 = lane dropped from windows
    std::vector<ThreadWindow> windows_;
    std::vector<LaneSource> laneSources_;
    std::vector<LaneFeed> feeds_;  //!< lane-major: [lane * threads + tid]
    std::map<unsigned, TraceSource::TouchedBlocks> census_;
    uint64_t refills_ = 0;
    size_t windowEventsNow_ = 0;
    size_t windowEventsHighWater_ = 0;
};

} // namespace tsp::trace

#endif // TSP_TRACE_CHUNK_SOURCE_H
