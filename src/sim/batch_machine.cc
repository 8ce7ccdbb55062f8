#include "sim/batch_machine.h"

#include <limits>

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "obs/timer.h"
#include "util/error.h"

namespace tsp::sim {

BatchMachine::BatchMachine(std::vector<BatchLane> lanes,
                           const trace::TraceSet &traces)
{
    util::fatalIf(lanes.empty(), "a batch needs >= 1 lane");
    lanes_.reserve(lanes.size());
    for (BatchLane &lane : lanes)
        lanes_.push_back(Lane{std::move(lane), &traces, nullptr, {},
                              false});
}

BatchMachine::BatchMachine(std::vector<BatchLane> lanes,
                           trace::SharedTraceStream &stream)
    : stream_(&stream)
{
    util::fatalIf(lanes.empty(), "a batch needs >= 1 lane");
    util::fatalIf(stream.laneCount() != lanes.size(),
                  "stream was built for a different lane count");
    lanes_.reserve(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
        lanes_.push_back(Lane{std::move(lanes[i]),
                              &stream.lane(static_cast<uint32_t>(i)),
                              nullptr, {}, false});
    }
}

void
BatchMachine::failLane(size_t i, const std::string &what)
{
    Lane &lane = lanes_[i];
    lane.machine.reset();
    lane.done = true;
    lane.result.ok = false;
    lane.result.error = what;
    // A dead lane must not pin the shared chunk windows.
    if (stream_)
        stream_->retireLane(static_cast<uint32_t>(i));
    obs::batchLaneFailures().inc();
}

std::vector<LaneResult>
BatchMachine::run(uint64_t chainQuantum)
{
    util::fatalIf(ran_, "a BatchMachine can only run once");
    ran_ = true;
    util::fatalIf(chainQuantum == 0, "chain quantum must be >= 1");

    obs::StopWatch watch;
    obs::batchLanes().set(static_cast<int64_t>(lanes_.size()));

    // Construct lane machines one by one. A failing construction —
    // invalid configuration, injected fault — fails only that lane.
    for (size_t i = 0; i < lanes_.size(); ++i) {
        Lane &lane = lanes_[i];
        try {
            TSP_FAULT_POINT("batch.lane");
            lane.machine = std::make_unique<Machine>(
                lane.spec.cfg, *lane.source, lane.spec.placement);
        } catch (const util::PanicError &) {
            throw;  // library bug: poison the whole batch
        } catch (const std::exception &e) {
            failLane(i, e.what());
        }
    }

    // Lockstep: each turn advances the live lane with the fewest
    // retired memory references by one quantum of event chains, so no
    // lane runs far ahead and a streaming window's resident spread
    // stays small.
    size_t live = 0;
    for (const Lane &lane : lanes_)
        live += lane.done ? 0 : 1;
    while (live > 0) {
        size_t pick = lanes_.size();
        uint64_t least = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < lanes_.size(); ++i) {
            if (lanes_[i].done)
                continue;
            uint64_t refs = lanes_[i].machine->memRefsSoFar();
            if (refs < least) {
                least = refs;
                pick = i;
            }
        }
        Lane &lane = lanes_[pick];
        try {
            if (lane.machine->advance(chainQuantum)) {
                lane.result.stats = lane.machine->finish();
                lane.result.ok = true;
                lane.done = true;
                if (stream_)
                    stream_->retireLane(static_cast<uint32_t>(pick));
                --live;
            }
        } catch (const util::PanicError &) {
            throw;
        } catch (const std::exception &e) {
            failLane(pick, e.what());
            --live;
        }
    }

    // Per-lane obs accounting through the same helper as simulate().
    // Lanes interleave on one thread, so per-lane wall time is not
    // separable; the batch wall is apportioned evenly.
    double laneMillis =
        watch.elapsedMs() / static_cast<double>(lanes_.size());
    for (Lane &lane : lanes_) {
        if (lane.result.ok)
            recordRunMetrics(lane.result.stats, *lane.machine,
                             laneMillis);
    }
    obs::batchLanes().set(0);

    std::vector<LaneResult> out;
    out.reserve(lanes_.size());
    for (Lane &lane : lanes_) {
        lane.machine.reset();
        out.push_back(std::move(lane.result));
    }
    return out;
}

} // namespace tsp::sim
