/**
 * @file
 * Micro-benchmarks of the event-driven simulator: references per
 * second across processor counts, context counts and cache sizes,
 * plus the parallel experiment engine's scaling curve (speedup and
 * efficiency of the same sweep at jobs in {1, 2, 4, N}).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include <numeric>

#include "core/load_balance.h"
#include "core/random_placement.h"
#include "experiment/configs.h"
#include "experiment/parallel.h"
#include "experiment/sampling_study.h"
#include "experiment/studies.h"
#include "sample/sampler.h"
#include "sim/machine.h"
#include "trace/address_space.h"
#include "util/format.h"
#include "util/rng.h"
#include "workload/app_profile.h"
#include "workload/generator.h"
#include "workload/stream.h"
#include "workload/suite.h"

namespace {

using namespace tsp;

/** A moderately sharing-heavy app reused across iterations. */
const trace::TraceSet &
benchTraces()
{
    static const trace::TraceSet set = [] {
        workload::AppProfile p;
        p.name = "microbench";
        p.threads = 16;
        p.meanLength = 60000;
        p.lengthDevPct = 30.0;
        p.sharedRefFrac = 0.6;
        p.refsPerSharedAddr = 25.0;
        p.globalFrac = 0.8;
        p.neighborFrac = 0.2;
        p.globalWriteMode = workload::GlobalWriteMode::Migratory;
        p.seed = 77;
        return workload::generateTraces(p, 1);
    }();
    return set;
}

/** Identity placement: thread i on processor i. */
placement::PlacementMap
identityMap(uint32_t threads)
{
    std::vector<uint32_t> assign(threads);
    std::iota(assign.begin(), assign.end(), 0u);
    return placement::PlacementMap(threads, assign);
}

/**
 * References per second across the whole machine-size range. Up to 16
 * processors this is the historical microbench shape (16-thread
 * materialized trace, random placement) so the recorded baselines
 * stay comparable. From 64 processors up it switches to one thread
 * per processor on the synthetic scalable workload through the
 * bounded-memory streaming path (a materialized 1024-thread TraceSet
 * would defeat the point); per-thread length shrinks with the machine
 * so total references stay roughly constant, isolating the
 * per-reference cost of wide sharer sets (SharerSet spill, broadcast
 * invalidations), which is what grows past 128 processors.
 */
void
BM_SimulateProcessors(benchmark::State &state)
{
    uint32_t procs = static_cast<uint32_t>(state.range(0));
    uint64_t refs = 0;
    if (procs >= 64) {
        workload::AppProfile p = experiment::syntheticScaleProfile(
            procs, /*meanLength=*/2'000'000 / procs);
        sim::SimConfig cfg;
        cfg.processors = procs;
        cfg.contexts = 1;
        cfg.cacheBytes = p.cacheBytes;
        auto map = identityMap(procs);
        for (auto _ : state) {
            workload::AppStreamFactory factory(p, /*scale=*/1);
            auto stats = sim::simulateStreaming(cfg, factory, map);
            refs += stats.totalMemRefs();
            benchmark::DoNotOptimize(stats.executionTime());
        }
    } else {
        const auto &traces = benchTraces();
        sim::SimConfig cfg;
        cfg.processors = procs;
        cfg.contexts = (16 + procs - 1) / procs;
        cfg.cacheBytes = 32 * 1024;
        util::Rng rng(1);
        auto map = placement::randomPlacement(16, procs, rng);
        for (auto _ : state) {
            auto stats = sim::simulate(cfg, traces, map);
            refs += stats.totalMemRefs();
            benchmark::DoNotOptimize(stats.executionTime());
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(refs));
    state.SetLabel("memory references/s");
}
BENCHMARK(BM_SimulateProcessors)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(64)->Arg(256)->Arg(1024);

/**
 * One phase-sampled run at 256 processors with the SamplePlan built
 * outside the timed region, matching how a placement study amortizes
 * the plan across its cells. Items are the *estimated-for* references
 * (the full trace), so items/s is the effective throughput sampling
 * buys; regressions here catch both the segment-seek machinery and
 * the reconstruction arithmetic.
 */
void
BM_SampledSimulate(benchmark::State &state)
{
    uint32_t procs = static_cast<uint32_t>(state.range(0));
    workload::AppProfile p =
        experiment::syntheticScaleProfile(procs, /*meanLength=*/60'000);
    sim::SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = 1;
    cfg.cacheBytes = p.cacheBytes;

    sample::SampleOptions so;
    so.windowRefs = 1'000;
    so.clusters = 4;
    so.warmupWindows = 1;

    workload::AppStreamFactory factory(p, /*scale=*/1);
    sample::SamplePlan plan =
        sample::buildSamplePlan(factory, so, cfg.blockBytes);
    auto map = identityMap(procs);

    uint64_t effectiveRefs = 0;
    for (auto _ : state) {
        sample::SampleEstimate est =
            sample::sampleSimulate(cfg, factory, map, plan);
        effectiveRefs += est.fullRefs;
        benchmark::DoNotOptimize(est.execTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(effectiveRefs));
    state.SetLabel("effective references/s");
}
BENCHMARK(BM_SampledSimulate)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/**
 * BM_SimulateProcessors with the full modern memory system (the
 * `contended` variant of docs/memory_system.md): shared inclusive L2,
 * MOESI, and one queued link per processor. Measures the overhead the
 * hierarchy adds to the per-reference hot path; the gap to
 * BM_SimulateProcessors at the same processor count is the price of
 * the L2 lookup + link queueing on every miss.
 */
void
BM_SimulateMemSystem(benchmark::State &state)
{
    const auto &traces = benchTraces();
    uint32_t procs = static_cast<uint32_t>(state.range(0));
    sim::SimConfig cfg;
    cfg.processors = procs;
    cfg.contexts = (16 + procs - 1) / procs;
    cfg.cacheBytes = 32 * 1024;
    experiment::applyMemSystem(cfg, experiment::MemSystem::Contended);

    util::Rng rng(1);
    auto map = placement::randomPlacement(16, procs, rng);
    uint64_t refs = 0;
    for (auto _ : state) {
        auto stats = sim::simulate(cfg, traces, map);
        refs += stats.totalMemRefs();
        benchmark::DoNotOptimize(stats.executionTime());
    }
    state.SetItemsProcessed(static_cast<int64_t>(refs));
    state.SetLabel("memory references/s");
}
BENCHMARK(BM_SimulateMemSystem)->Arg(4)->Arg(16);

void
BM_SimulateCacheSize(benchmark::State &state)
{
    const auto &traces = benchTraces();
    sim::SimConfig cfg;
    cfg.processors = 4;
    cfg.contexts = 4;
    cfg.cacheBytes = static_cast<uint64_t>(state.range(0)) * 1024;

    util::Rng rng(2);
    auto map = placement::randomPlacement(16, 4, rng);
    uint64_t refs = 0;
    for (auto _ : state) {
        auto stats = sim::simulate(cfg, traces, map);
        refs += stats.totalMemRefs();
        benchmark::DoNotOptimize(stats.totalMisses());
    }
    state.SetItemsProcessed(static_cast<int64_t>(refs));
}
BENCHMARK(BM_SimulateCacheSize)->Arg(8)->Arg(32)->Arg(64)->Arg(8192);

void
BM_LoadBalancedSimulation(benchmark::State &state)
{
    const auto &traces = benchTraces();
    sim::SimConfig cfg;
    cfg.processors = 8;
    cfg.contexts = 2;
    cfg.cacheBytes = 32 * 1024;
    auto map =
        placement::loadBalancedPlacement(traces.threadLengths(), 8);
    for (auto _ : state) {
        auto stats = sim::simulate(cfg, traces, map);
        benchmark::DoNotOptimize(stats.executionTime());
    }
}
BENCHMARK(BM_LoadBalancedSimulation);

/**
 * Scaling curve of the parallel experiment engine: one full
 * execution-time sweep (Figures 2-4 shape) at a fixed workload,
 * fanned over jobs worker threads. The label reports speedup over
 * the jobs=1 baseline and parallel efficiency (speedup / jobs);
 * results are bit-identical at every width, so only wall-clock moves.
 */
void
BM_ParallelSweepJobs(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    // Warm the Lab's caches outside the timed region so every width
    // measures pure fan-out over identical read-only inputs.
    experiment::Lab lab(workload::defaultScale());
    lab.warmup(workload::AppId::Water);

    uint64_t sims = 0;
    auto wallStart = std::chrono::steady_clock::now();
    for (auto _ : state) {
        auto points = experiment::execTimeStudy(
            lab, workload::AppId::Water,
            placement::figureAlgorithms(), {.jobs = jobs});
        sims += points.size();
        benchmark::DoNotOptimize(points.data());
    }
    double wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wallStart)
                        .count();
    double msPerSweep =
        state.iterations() ? wallMs / state.iterations() : 0.0;

    // Speedup/efficiency vs. the jobs=1 run (registered first, so the
    // baseline is always populated by the time wider runs report).
    static double baselineMsPerSweep = 0.0;
    if (jobs == 1 && msPerSweep > 0.0)
        baselineMsPerSweep = msPerSweep;
    double speedup = (baselineMsPerSweep > 0.0 && msPerSweep > 0.0)
        ? baselineMsPerSweep / msPerSweep
        : 1.0;

    state.SetItemsProcessed(static_cast<int64_t>(sims));
    state.counters["jobs"] = jobs;
    state.counters["speedup"] = speedup;
    state.counters["efficiency"] = speedup / jobs;
    state.SetLabel("speedup " + util::fmtFixed(speedup, 2) + "x, " +
                   util::fmtPercent(speedup / jobs, 0) +
                   " efficient");
}
BENCHMARK(BM_ParallelSweepJobs)
    ->Apply([](benchmark::internal::Benchmark *b) {
        std::vector<int> widths{1, 2, 4};
        int hw = static_cast<int>(std::thread::hardware_concurrency());
        if (hw > 0 &&
            std::find(widths.begin(), widths.end(), hw) == widths.end())
            widths.push_back(hw);
        for (int w : widths)
            b->Arg(w);
        b->UseRealTime()->Unit(benchmark::kMillisecond);
    });

} // namespace
