/**
 * @file
 * Micro-benchmarks of the batched lockstep engine over the streaming
 * chunked trace pipeline (google-benchmark, gated by
 * tools/compare_benches.py like the scalar simulator benches).
 *
 * The regime being measured is the streaming one — no materialized
 * trace is allowed to persist between cells, so every scalar cell
 * pays the full producer cost itself (census pass + generation pass +
 * simulation), which is exactly the per-cell decode the batched
 * engine amortizes: one census and one generation feed all N lanes.
 *
 *   scalar:  N x (census + generate + simulate)
 *   batched:     census + generate + N x simulate
 *
 * Both paths report aggregate memory references per second across all
 * lanes, so BM_BatchedSimulator/N vs BM_ScalarStreamingRuns/N is the
 * amortization factor directly: it rises with N toward the asymptote
 * (production cost fully amortized) and crosses 2x within the
 * measured batch range — see the model and the recorded numbers in
 * docs/performance.md.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/random_placement.h"
#include "sim/batch_machine.h"
#include "sim/machine.h"
#include "trace/chunk_source.h"
#include "util/rng.h"
#include "workload/app_profile.h"
#include "workload/stream.h"

namespace {

using namespace tsp;

/**
 * A mostly-private, read-share workload: low miss rates keep the
 * per-reference simulation cost down, which is the regime where
 * production cost matters and batching pays (see the amortization
 * model in docs/performance.md).
 */
workload::AppProfile
benchProfile()
{
    workload::AppProfile p;
    p.name = "batchbench";
    p.threads = 16;
    p.meanLength = 30000;
    p.lengthDevPct = 30.0;
    p.sharedRefFrac = 0.10;
    p.refsPerSharedAddr = 40.0;
    p.writeFrac = 0.05;
    p.globalFrac = 0.8;
    p.neighborFrac = 0.2;
    p.seed = 77;
    return p;
}

/**
 * N lanes across the paper's 2-16 processor sweep axis, each with its
 * own random placement — the shape of a sweep batch.
 */
std::vector<sim::BatchLane>
makeLanes(size_t n)
{
    const uint32_t procChoices[] = {2, 4, 8, 16};
    std::vector<sim::BatchLane> lanes;
    for (size_t i = 0; i < n; ++i) {
        uint32_t procs = procChoices[i % 4];
        sim::SimConfig cfg;
        cfg.processors = procs;
        cfg.contexts = (16 + procs - 1) / procs;
        cfg.cacheBytes = 128 * 1024;
        util::Rng rng(100 + static_cast<uint64_t>(i));
        lanes.push_back(
            {cfg, placement::randomPlacement(16, procs, rng)});
    }
    return lanes;
}

/** One batched lockstep run over a fresh shared stream. */
void
BM_BatchedSimulator(benchmark::State &state)
{
    workload::AppProfile p = benchProfile();
    size_t n = static_cast<size_t>(state.range(0));
    uint64_t refs = 0;
    for (auto _ : state) {
        workload::AppStreamFactory factory(p, 1);
        trace::SharedTraceStream stream(factory,
                                        static_cast<uint32_t>(n));
        sim::BatchMachine machine(makeLanes(n), stream);
        std::vector<sim::LaneResult> results = machine.run();
        for (const sim::LaneResult &r : results) {
            refs += r.stats.totalMemRefs();
            benchmark::DoNotOptimize(r.stats.executionTime());
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(refs));
    state.SetLabel("aggregate memory references/s");
}
BENCHMARK(BM_BatchedSimulator)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/** N independent streaming cells: the unbatched cost being amortized. */
void
BM_ScalarStreamingRuns(benchmark::State &state)
{
    workload::AppProfile p = benchProfile();
    size_t n = static_cast<size_t>(state.range(0));
    uint64_t refs = 0;
    for (auto _ : state) {
        std::vector<sim::BatchLane> lanes = makeLanes(n);
        for (sim::BatchLane &lane : lanes) {
            workload::AppStreamFactory factory(p, 1);
            trace::SharedTraceStream stream(factory, 1);
            sim::Machine machine(lane.cfg, stream.lane(0),
                                 lane.placement);
            sim::SimStats stats = machine.run();
            refs += stats.totalMemRefs();
            benchmark::DoNotOptimize(stats.executionTime());
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(refs));
    state.SetLabel("aggregate memory references/s");
}
BENCHMARK(BM_ScalarStreamingRuns)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/** Raw chunked-pipeline throughput: generate + stream, no simulation. */
void
BM_ChunkedTraceGeneration(benchmark::State &state)
{
    workload::AppProfile p = benchProfile();
    uint64_t events = 0;
    for (auto _ : state) {
        workload::AppStreamFactory factory(p, 1);
        trace::SharedTraceStream stream(factory, 1);
        for (uint32_t tid = 0; tid < factory.threadCount(); ++tid) {
            trace::ChunkFeed &feed = stream.feed(0, tid);
            const trace::TraceEvent *begin = nullptr;
            const trace::TraceEvent *end = nullptr;
            while (feed.next(&begin, &end))
                events += static_cast<uint64_t>(end - begin);
        }
        benchmark::DoNotOptimize(stream.refillCount());
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("trace events/s");
}
BENCHMARK(BM_ChunkedTraceGeneration)->Unit(benchmark::kMillisecond);

} // namespace
