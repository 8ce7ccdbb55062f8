/**
 * @file
 * Batched lockstep simulation engine: advance N simulator lanes —
 * the same workload under different configurations and placements
 * (a processor-count sweep axis, competing placement arms) — together
 * over one shared trace. With a streaming SharedTraceStream the trace
 * is produced once and consumed by every lane while only a bounded
 * chunk window stays resident; with a materialized TraceSet the lanes
 * simply share the (already resident) events and the memoized census.
 *
 * Every lane is an ordinary sim::Machine, advanced through the public
 * advance()/finish() slicing, so each lane's SimStats is bit-identical
 * to a scalar Machine::run() over the same trace — the scalar path
 * stays the reference oracle (tests/sim_batch_test.cc pins parity).
 *
 * A lane that throws (bad configuration, injected fault) degrades to
 * an error LaneResult; sibling lanes are isolated and keep running.
 */

#ifndef TSP_SIM_BATCH_MACHINE_H
#define TSP_SIM_BATCH_MACHINE_H

#include <memory>
#include <string>
#include <vector>

#include "core/placement_map.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/results.h"
#include "trace/chunk_source.h"
#include "trace/trace_set.h"

namespace tsp::sim {

/** One lane's inputs: an architecture and a placement for it. */
struct BatchLane
{
    SimConfig cfg;
    placement::PlacementMap placement;
};

/** One lane's outcome. */
struct LaneResult
{
    bool ok = false;
    std::string error;  //!< failure description when !ok
    SimStats stats;     //!< meaningful only when ok
};

/**
 * Construct with the lanes plus a trace source, call run() once, read
 * the per-lane results (in lane order).
 */
class BatchMachine
{
  public:
    /**
     * Chains each lane runs per lockstep turn. Large enough to
     * amortize the turn switch, small enough that lane divergence —
     * and with it a streaming window's resident spread — stays small
     * (docs/performance.md).
     */
    static constexpr uint64_t kDefaultChainQuantum = 4096;

    /** Lanes over a materialized, shared trace set. */
    BatchMachine(std::vector<BatchLane> lanes,
                 const trace::TraceSet &traces);

    /**
     * Lanes over a shared streaming source. @p stream must have been
     * built with laneCount() == lanes.size(); lane i consumes
     * stream.lane(i).
     */
    BatchMachine(std::vector<BatchLane> lanes,
                 trace::SharedTraceStream &stream);

    /** Number of lanes. */
    size_t laneCount() const { return lanes_.size(); }

    /**
     * Run every lane to completion (or failure) and return the
     * results in lane order. May be called once. Single-threaded by
     * design: the lockstep scheduler advances the most-lagging live
     * lane (by retired memory references) one quantum at a time.
     */
    std::vector<LaneResult>
    run(uint64_t chainQuantum = kDefaultChainQuantum);

  private:
    struct Lane
    {
        BatchLane spec;
        const trace::TraceSource *source = nullptr;
        std::unique_ptr<Machine> machine;
        LaneResult result;
        bool done = false;
    };

    /** Fail lane @p i with @p what (releases its resources). */
    void failLane(size_t i, const std::string &what);

    std::vector<Lane> lanes_;
    trace::SharedTraceStream *stream_ = nullptr;
    bool ran_ = false;
};

} // namespace tsp::sim

#endif // TSP_SIM_BATCH_MACHINE_H
