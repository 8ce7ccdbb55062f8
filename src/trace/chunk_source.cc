#include "trace/chunk_source.h"

#include <algorithm>

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "trace/touched_block_counter.h"
#include "util/error.h"

namespace tsp::trace {

SharedTraceStream::SharedTraceStream(StreamFactory &factory,
                                     uint32_t lanes, size_t chunkEvents)
    : factory_(factory),
      laneCount_(lanes),
      chunkEvents_(chunkEvents)
{
    util::fatalIf(lanes == 0, "a trace stream needs >= 1 lane");
    util::fatalIf(chunkEvents == 0, "chunk size must be >= 1 event");
    uint32_t threads = factory_.threadCount();
    util::fatalIf(threads == 0, "a trace stream needs >= 1 thread");

    retired_.assign(lanes, 0);
    windows_.resize(threads);
    for (ThreadWindow &w : windows_) {
        w.producer = nullptr;  // opened lazily on first pull
        w.laneNext.assign(lanes, 0);
    }

    // Pre-build every lane view and feed: lane() and openThread()
    // return references into these vectors, so they are sized once
    // here and never resized again.
    laneSources_.reserve(lanes);
    feeds_.reserve(static_cast<size_t>(lanes) * threads);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
        laneSources_.emplace_back(*this, lane);
        for (ThreadId tid = 0; tid < threads; ++tid)
            feeds_.emplace_back(*this, lane, tid);
    }
}

TraceSource &
SharedTraceStream::lane(uint32_t lane)
{
    util::fatalIf(lane >= laneCount_, "lane index out of range");
    return laneSources_[lane];
}

ChunkFeed &
SharedTraceStream::feed(uint32_t lane, ThreadId tid)
{
    util::fatalIf(lane >= laneCount_, "lane index out of range");
    util::fatalIf(tid >= windows_.size(), "thread id out of range");
    return feeds_[static_cast<size_t>(lane) * windows_.size() + tid];
}

bool
SharedTraceStream::feedNext(uint32_t lane, ThreadId tid,
                            const TraceEvent **begin,
                            const TraceEvent **end)
{
    ThreadWindow &w = windows_[tid];
    size_t idx = w.laneNext[lane];
    if (idx == w.hiIdx && !refill(w, tid))
        return false;
    const std::vector<TraceEvent> &chunk = w.chunks[idx - w.loIdx];
    *begin = chunk.data();
    *end = chunk.data() + chunk.size();
    w.laneNext[lane] = idx + 1;
    trim(w);
    return true;
}

bool
SharedTraceStream::refill(ThreadWindow &w, ThreadId tid)
{
    if (w.eof)
        return false;

    // Before any state changes: a refill fault leaves the window
    // consistent, so sibling lanes (and a retried pull) proceed
    // normally after the throwing lane is failed.
    TSP_FAULT_POINT("trace.chunk_refill");

    if (w.producer == nullptr)
        w.producer = factory_.openProducer(tid);

    std::vector<TraceEvent> chunk;
    chunk.reserve(chunkEvents_);
    while (chunk.size() < chunkEvents_ && w.producer->produce(chunk)) {
    }
    if (chunk.empty()) {
        w.eof = true;
        w.producer.reset();
        return false;
    }

    windowEventsNow_ += chunk.size();
    windowEventsHighWater_ =
        std::max(windowEventsHighWater_, windowEventsNow_);
    w.chunks.push_back(std::move(chunk));
    ++w.hiIdx;
    ++refills_;
    obs::traceChunkRefills().inc();
    obs::traceWindowEvents().set(
        static_cast<int64_t>(windowEventsNow_));
    return true;
}

void
SharedTraceStream::trim(ThreadWindow &w)
{
    size_t minNext = SIZE_MAX;
    for (uint32_t lane = 0; lane < laneCount_; ++lane) {
        if (!retired_[lane])
            minNext = std::min(minNext, w.laneNext[lane]);
    }
    if (minNext == SIZE_MAX) {
        // Every lane retired: nothing can be read again.
        while (!w.chunks.empty()) {
            windowEventsNow_ -= w.chunks.front().size();
            w.chunks.pop_front();
            ++w.loIdx;
        }
        return;
    }
    // A lane whose next index is m may still be consuming chunk m - 1,
    // so only chunks below minNext - 1 are certainly dead.
    while (minNext >= 1 && w.loIdx < minNext - 1) {
        windowEventsNow_ -= w.chunks.front().size();
        w.chunks.pop_front();
        ++w.loIdx;
    }
}

void
SharedTraceStream::retireLane(uint32_t lane)
{
    util::fatalIf(lane >= laneCount_, "lane index out of range");
    if (retired_[lane])
        return;
    retired_[lane] = 1;
    for (ThreadWindow &w : windows_)
        trim(w);
}

const TraceSource::TouchedBlocks &
SharedTraceStream::touchedBlocks(unsigned blockShift)
{
    auto it = census_.find(blockShift);
    if (it != census_.end())
        return it->second;

    // Dedicated producer pass per thread: openProducer replays
    // deterministically, so this sees exactly the simulated events.
    TouchedBlockCounter counter(blockShift);
    std::vector<TraceEvent> buf;
    for (ThreadId tid = 0; tid < factory_.threadCount(); ++tid) {
        std::unique_ptr<ChunkProducer> producer =
            factory_.openProducer(tid);
        for (;;) {
            buf.clear();
            if (!producer->produce(buf))
                break;
            counter.count(buf);
        }
        counter.endThread();
    }
    return census_.emplace(blockShift, counter.take()).first->second;
}

} // namespace tsp::trace
