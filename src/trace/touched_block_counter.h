/**
 * @file
 * The touched-block census loop shared by the trace module's two
 * TraceSource implementations. Private to src/trace.
 */

#ifndef TSP_TRACE_TOUCHED_BLOCK_COUNTER_H
#define TSP_TRACE_TOUCHED_BLOCK_COUNTER_H

#include <cstdint>
#include <span>

#include "trace/trace_set.h"
#include "util/flat_map.h"

namespace tsp::trace {

/**
 * The one touched-block counting loop behind both census paths
 * (TraceSet and SharedTraceStream): count() each thread's events in
 * thread-id order, span by span, closing every thread with
 * endThread().
 */
class TouchedBlockCounter
{
  public:
    explicit TouchedBlockCounter(unsigned blockShift)
        : blockShift_(blockShift)
    {
        local_.reserve(4096);
    }

    /** Count the loads and stores in @p events for the open thread. */
    void count(std::span<const TraceEvent> events);

    /** Close the open thread: record its distinct-block count. */
    void endThread();

    /** The finished census. */
    TraceSource::TouchedBlocks take();

  private:
    unsigned blockShift_;
    util::FlatMap<uint64_t, uint8_t> global_;
    util::FlatMap<uint64_t, uint8_t> local_;
    TraceSource::TouchedBlocks census_;
};

} // namespace tsp::trace

#endif // TSP_TRACE_TOUCHED_BLOCK_COUNTER_H
