/**
 * @file
 * The simulator's trace input (TraceSource) and its materialized
 * implementation: an application's complete trace, one ThreadTrace per
 * thread, plus application metadata (TraceSet). The streamed
 * implementation is a SharedTraceStream lane (trace/chunk_source.h).
 */

#ifndef TSP_TRACE_TRACE_SET_H
#define TSP_TRACE_TRACE_SET_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/thread_trace.h"

namespace tsp::trace {

/**
 * What one simulation consumes: an application's per-thread event
 * sequences. The Machine sizes itself from threadCount(),
 * barrierCount() and touchedBlocks(), then walks each thread's events
 * with the cursor openThread() returns. Cursors are returned by value
 * because one TraceSet serves concurrent simulations at once.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Number of threads. */
    virtual uint32_t threadCount() const = 0;

    /** Barriers thread @p tid executes (known without replay). */
    virtual uint64_t barrierCount(ThreadId tid) const = 0;

    /**
     * Distinct cache blocks referenced at a given block granularity:
     * the union over every thread plus per-thread counts. The Machine
     * uses these to pre-size its directory and per-cache history
     * tables so the simulate loop never rehashes.
     */
    struct TouchedBlocks
    {
        uint64_t total = 0;               //!< distinct across all threads
        std::vector<uint64_t> perThread;  //!< distinct per thread
    };

    /**
     * The touched-block census for @p blockShift (block = addr >>
     * blockShift): one pass over the events on first call, memoized
     * per shift thereafter, so sweeps re-running the same trace pay
     * the census once. The reference stays valid for the source's
     * lifetime (a TraceSet's: until its next mutation).
     */
    virtual const TouchedBlocks &
    touchedBlocks(unsigned blockShift) const = 0;

    /** A cursor at the start of thread @p tid's events. */
    virtual TraceCursor openThread(ThreadId tid) const = 0;
};

/**
 * All per-thread traces of one application run, in thread-id order.
 */
class TraceSet : public TraceSource
{
  public:
    /** Construct an empty set for application @p name. */
    explicit TraceSet(std::string name = "") : name_(std::move(name)) {}

    /** Application name. */
    const std::string &name() const { return name_; }

    /** Set the application name. */
    void setName(std::string name) { name_ = std::move(name); }

    uint32_t
    threadCount() const override
    {
        return static_cast<uint32_t>(threads_.size());
    }

    uint64_t
    barrierCount(ThreadId tid) const override
    {
        return threads_.at(tid).barrierCount();
    }

    /**
     * Thread-safe against concurrent readers; the memo resets whenever
     * a thread trace is added or mutably accessed.
     */
    const TouchedBlocks &
    touchedBlocks(unsigned blockShift) const override;

    TraceCursor
    openThread(ThreadId tid) const override
    {
        return TraceCursor(threads_.at(tid));
    }

    /** Append a thread trace; its id must equal its position. */
    void addThread(ThreadTrace tt);

    /** Thread trace by id. */
    const ThreadTrace &thread(ThreadId id) const { return threads_.at(id); }

    /** Mutable thread trace by id (invalidates the touched memo). */
    ThreadTrace &
    thread(ThreadId id)
    {
        invalidateTouched();
        return threads_.at(id);
    }

    /** All threads in id order. */
    const std::vector<ThreadTrace> &threads() const { return threads_; }

    /** Sum of instruction counts over all threads. */
    uint64_t totalInstructions() const;

    /** Sum of data references over all threads. */
    uint64_t totalMemRefs() const;

    /** Per-thread instruction counts in thread-id order. */
    std::vector<uint64_t> threadLengths() const;

  private:
    /** Shift-keyed census memo, shared by copies until invalidated. */
    struct TouchedMemo
    {
        std::mutex mutex;
        std::map<unsigned, TouchedBlocks> byShift;
    };

    /** Give this set a fresh memo (on any mutation). */
    void
    invalidateTouched()
    {
        touched_ = std::make_shared<TouchedMemo>();
    }

    std::string name_;
    std::vector<ThreadTrace> threads_;
    std::shared_ptr<TouchedMemo> touched_ =
        std::make_shared<TouchedMemo>();
};

} // namespace tsp::trace

#endif // TSP_TRACE_TRACE_SET_H
