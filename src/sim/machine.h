/**
 * @file
 * The multithreaded multiprocessor simulator (Section 3.2).
 *
 * Each processor has multiple hardware contexts scheduled round-robin;
 * a cache miss initiates a 6-cycle context switch to the next ready
 * context; misses complete after a flat interconnect latency. The
 * machine is event-driven: processors interact only through directory
 * transactions, which occur at memory-reference events processed in
 * global time order, so the simulation is exact for the paper's
 * contention-free interconnect model.
 *
 * The one trace input is a trace::TraceSource: a materialized
 * TraceSet, or one lane of a streamed SharedTraceStream whose memory
 * stays bounded by its chunk windows. Both hand the machine the same
 * event sequence through a TraceCursor, so a run is bit-identical
 * whichever the source.
 *
 * Traces may contain barrier markers (EventKind::Barrier); a thread
 * arriving at barrier k blocks until every thread has arrived at
 * barrier k. The paper's trace-driven simulation free-runs the
 * per-thread traces (no synchronization); barriers are this
 * reproduction's optional fidelity extension for the barrier-phased
 * programs the workload models.
 */

#ifndef TSP_SIM_MACHINE_H
#define TSP_SIM_MACHINE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/placement_map.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/directory.h"
#include "sim/event_tree.h"
#include "sim/interconnect.h"
#include "sim/invariant_checker.h"
#include "sim/l2_cache.h"
#include "sim/results.h"
#include "sim/sharing_monitor.h"
#include "trace/chunk_source.h"
#include "trace/trace_set.h"
#include "util/error.h"

namespace tsp::sim {

/**
 * One simulation instance. Construct, call run() once, read the stats.
 */
class Machine
{
  public:
    /**
     * @param cfg       architectural parameters (validated here)
     * @param source    the application's per-thread traces; must
     *                  outlive the machine
     * @param placement thread -> processor map; processor count must
     *                  match @p cfg
     */
    Machine(const SimConfig &cfg, const trace::TraceSource &source,
            const placement::PlacementMap &placement);

    /**
     * Observer invoked on every data reference, in the exact global
     * order the machine processes them: (processor, thread, block,
     * isStore, hit, missKind — meaningful only when hit is false).
     * Used by the differential reference-model tests; adds a call per
     * reference, so leave unset in performance-sensitive runs.
     */
    using AccessObserver =
        std::function<void(uint32_t proc, uint32_t tid, uint64_t block,
                           bool isStore, bool hit, MissKind kind)>;

    /** Install an access observer (replaces any previous one). */
    void
    setAccessObserver(AccessObserver observer)
    {
        accessObserver_ = std::move(observer);
    }

    /** Run the simulation to completion and return the statistics. */
    SimStats run();

    /**
     * Advance the simulation by at most @p maxChains event chains
     * (outer-loop scheduler picks; 0 = unbounded). Returns true once
     * the event queue has drained. All scheduling state lives in
     * members between chains, so pausing here is invisible to the
     * simulation: any advance()/finish() slicing produces results
     * bit-identical to a single run(). Drives lockstep batching
     * (sim::BatchMachine).
     */
    bool advance(uint64_t maxChains);

    /**
     * Finalize after advance() returned true: end-of-run validation
     * plus the stats that only exist at completion. run() is exactly
     * advance(0) + finish().
     */
    SimStats finish();

    /**
     * Memory references retired so far: the lockstep scheduler's
     * progress metric (advancing the laggard first keeps the shared
     * chunk windows small).
     */
    uint64_t
    memRefsSoFar() const
    {
        uint64_t sum = 0;
        for (const ProcessorStats &ps : stats_.procs)
            sum += ps.memRefs;
        return sum;
    }

    /** Blocks in the directory table (for the sim.dir_entries gauge). */
    size_t directoryEntries() const { return directory_.entryCount(); }

    /** Summed per-cache departure-history sizes (sim.history_entries). */
    size_t
    historyEntries() const
    {
        size_t sum = 0;
        for (const Cache &c : caches_)
            sum += c.historySize();
        return sum;
    }

  private:
    /** readyAt sentinel: blocked at a barrier. */
    static constexpr uint64_t kWaiting = ~0ull;

    /** scheduledAt sentinel: no outstanding event. */
    static constexpr uint64_t kNoEvent = EventTree::kNoEvent;

    /** One hardware context. */
    struct Context
    {
        int32_t thread = -1;  //!< bound thread id, -1 when empty
        std::optional<trace::TraceCursor> cursor;
        uint64_t readyAt = 0;  //!< stalled until this cycle (kWaiting
                               //!< while blocked at a barrier)
        uint64_t barrierArriveAt = 0;

        // A chunk's work advances local time first; its trailing
        // interaction (memory reference or barrier) is committed in a
        // separate step so that directory operations and barrier
        // arrivals are processed in exact global time order.
        bool hasPending = false;
        bool pendingBarrier = false;
        bool pendingStore = false;
        uint64_t pendingBlock = 0;  //!< addr >> blockShift, translated
                                    //!< once when the chunk is fetched
    };

    /** One processor's scheduling state. */
    struct Proc
    {
        std::vector<Context> ctxs;
        std::deque<uint32_t> pending;  //!< threads not yet loaded
        int32_t active = -1;  //!< context currently in the pipeline
        std::optional<uint64_t> idleSince;  //!< lazily-accounted idle
        uint64_t liveMask = 0;  //!< bit c set when ctxs[c] holds a
                                //!< thread (maintained for c < 64)
        bool needsReap = false; //!< some context finished its trace and
                                //!< has not been unloaded yet
    };

    /** Load @p tid into context @p c of processor @p p at time @p now. */
    void loadThread(Proc &proc, size_t c, uint32_t tid, uint64_t now);

    /** Retire contexts whose trace is exhausted and ready. */
    void reapFinished(uint32_t p, uint64_t now);

    /** Round-robin pick of a ready context; -1 when none. */
    int32_t pickReady(const Proc &proc, uint64_t now) const;

    /** Earliest wake among stalled (not barrier-blocked) contexts. */
    std::optional<uint64_t> nextWake(const Proc &proc) const;

    /**
     * Earliest pending event time across all processors: the O(P)
     * horizon refresh after a mid-chain barrier release, the one
     * place the chain cannot ask the event tree (it is stale then).
     */
    uint64_t
    minScheduled() const
    {
        uint64_t t = kNoEvent;
        for (uint64_t s : scheduledAt_)
            t = s < t ? s : t;
        return t;
    }

    /**
     * Perform the memory access on @p block (already translated from
     * the address), updating caches, directory and stats. Returns true
     * when the access missed (context must stall).
     */
    bool access(uint32_t p, uint32_t tid, uint64_t block, bool isStore);

    /**
     * Deliver the invalidations of write transaction @p txn for
     * @p block, walking the victim bitmask in ascending processor
     * order (the same order the old vector was built in). Bitmask in,
     * no heap traffic: see docs/performance.md.
     */
    void applyInvalidations(uint32_t causerProc, uint32_t causerTid,
                            const Directory::Txn &txn, uint64_t block);

    /**
     * Inclusion maintenance: the inclusive L2 evicted @p vblock
     * (dirty if @p l2Dirty), so remove every L1 copy, in ascending
     * processor order, notifying the directory and accounting dirty
     * copies as writebacks. @p causerTid is the thread whose fill
     * displaced the block (departure histories record it as the
     * evictor).
     */
    void backInvalidateL1s(uint64_t vblock, bool l2Dirty,
                           uint32_t causerTid);

    /** Record a barrier arrival; releases everyone on the last one. */
    void barrierArrive(uint32_t p, size_t c, uint64_t now);

    /** Wake every barrier waiter at time @p now. */
    void releaseBarrier(uint64_t now);

    /**
     * Move processor @p p's next event up to @p t if earlier. The
     * event tree is then stale: advance() rebuilds it before the next
     * chain.
     */
    void
    schedule(uint32_t p, uint64_t t)
    {
        // kNoEvent is itself beyond the limit.
        util::panicIf(t >= EventTree::kTimeLimit,
                      "event time beyond the event tree's 54-bit range");
        if (t < scheduledAt_[p]) {
            scheduledAt_[p] = t;
            rescheduled_ = true;
            treeStale_ = true;
        }
    }

    SimConfig cfg_;
    const trace::TraceSource *source_;
    unsigned blockShift_;

    std::vector<Proc> procs_;
    std::vector<Cache> caches_;
    Directory directory_;

    // frameDir_[p * framesPerCache_ + f] is the Txn::entry handle for
    // the block cache p's frame f holds (meaningless while the frame
    // is invalid). Evicting through the handle instead of re-hashing
    // the tag removes one directory lookup per miss
    // (docs/performance.md).
    size_t framesPerCache_ = 0;
    std::vector<Directory::Entry *> frameDir_;
    Interconnect interconnect_;
    std::optional<SharedL2> l2_;  //!< present when cfg.l2Bytes > 0

    // Fill cycles of the most recent stalling access() — the full
    // memoryLatency, or l2HitLatency when the shared L2 had the block.
    // The event loop adds the interconnect queueing delay on top, so
    // the flat default reproduces wait-free memoryLatency exactly.
    uint32_t missFillCycles_ = 0;
    std::optional<SharingMonitor> monitor_;
    AccessObserver accessObserver_;
    SimStats stats_;
    bool started_ = false;   //!< first advance()/run() happened
    bool complete_ = false;  //!< event queue drained
    bool finished_ = false;  //!< finish() consumed the stats

    // Paranoid mode (SimConfig::paranoidEvery > 0): the checker and a
    // countdown of references until the next check. When disabled the
    // optional stays empty and access() pays a single branch.
    std::optional<InvariantChecker> checker_;
    uint64_t refsUntilCheck_ = 0;
    uint64_t refsSeen_ = 0;

    // Event "queue": scheduledAt_[p] is processor p's next event time
    // (kNoEvent when it has none), and events_ is a loser tree over
    // those times: each chain reads its processor and horizon from the
    // tree in O(log P) and re-plays one leaf when it ends
    // (sim/event_tree.h, docs/performance.md). A chain clears its own
    // scheduledAt_ entry but leaves its leaf in the tree until then.
    // rescheduled_ flags a mid-chain schedule() (barrier release) so
    // the chain recomputes its cached horizon only when it can change;
    // treeStale_ makes the next chain rebuild the tree from
    // scheduledAt_ instead of re-playing one leaf.
    std::vector<uint64_t> scheduledAt_;
    EventTree events_;
    bool rescheduled_ = false;
    bool treeStale_ = false;

    // Barrier state.
    uint32_t barrierParticipants_ = 0;  //!< 0 when traces are barrier-free
    uint32_t barrierArrived_ = 0;
    std::vector<std::pair<uint32_t, uint32_t>> barrierWaiters_;
};

/** Convenience wrapper: construct a Machine and run it. */
SimStats simulate(const SimConfig &cfg, const trace::TraceSource &source,
                  const placement::PlacementMap &placement);

/**
 * simulate() over the single lane of a SharedTraceStream fed by
 * @p factory, so the trace is generated in bounded chunk windows
 * instead of materialized whole — the path that makes 1024-processor
 * billion-reference runs fit in RAM. Results are bit-identical to
 * simulate() over the materialized equivalent. Sets the
 * trace.resident_bytes gauge to the stream's chunk-window high water;
 * @p residentBytesOut (optional) receives the same bound.
 */
SimStats simulateStreaming(
    const SimConfig &cfg, trace::StreamFactory &factory,
    const placement::PlacementMap &placement,
    size_t chunkEvents = trace::SharedTraceStream::kDefaultChunkEvents,
    size_t *residentBytesOut = nullptr);

/**
 * Record the per-run obs metrics for a completed simulation (one
 * batch of counter adds per run, zero accounting in the event loop).
 * Shared by simulate() and the batched engine's per-lane accounting.
 */
void recordRunMetrics(const SimStats &stats, const Machine &machine,
                      double wallMillis);

} // namespace tsp::sim

#endif // TSP_SIM_MACHINE_H
