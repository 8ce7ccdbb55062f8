/**
 * @file
 * Micro-benchmarks of the placement machinery: static analysis and
 * the clustering engine across thread counts and algorithms.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <utility>

#include "analysis/static_analysis.h"
#include "core/algorithms.h"
#include "experiment/sampling_study.h"
#include "util/rng.h"
#include "workload/app_profile.h"
#include "workload/generator.h"

namespace {

using namespace tsp;

workload::AppProfile
profileWithThreads(uint32_t threads)
{
    workload::AppProfile p;
    p.name = "placebench";
    p.threads = threads;
    p.meanLength = 20000;
    p.lengthDevPct = 50.0;
    p.sharedRefFrac = 0.5;
    p.refsPerSharedAddr = 20.0;
    p.globalFrac = 0.7;
    p.neighborFrac = 0.3;
    p.seed = 99;
    return p;
}

const analysis::StaticAnalysis &
analysisWithThreads(uint32_t threads)
{
    static std::map<uint32_t, analysis::StaticAnalysis> cache;
    auto it = cache.find(threads);
    if (it == cache.end()) {
        auto traces =
            workload::generateTraces(profileWithThreads(threads), 1);
        it = cache
                 .emplace(threads,
                          analysis::StaticAnalysis::analyze(traces))
                 .first;
    }
    return it->second;
}

void
BM_StaticAnalysis(benchmark::State &state)
{
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    auto traces =
        workload::generateTraces(profileWithThreads(threads), 1);
    for (auto _ : state) {
        auto an = analysis::StaticAnalysis::analyze(traces);
        benchmark::DoNotOptimize(an.sharedRefs().total());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(traces.totalMemRefs()));
}
BENCHMARK(BM_StaticAnalysis)->Arg(8)->Arg(32)->Arg(64);

void
BM_ClusterShareRefs(benchmark::State &state)
{
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    const auto &an = analysisWithThreads(threads);
    util::Rng rng(5);
    for (auto _ : state) {
        auto map = placement::place(placement::Algorithm::ShareRefs,
                                    an, 4, rng);
        benchmark::DoNotOptimize(map.threadCount());
    }
}
BENCHMARK(BM_ClusterShareRefs)->Arg(8)->Arg(32)->Arg(64)->Arg(127);

void
BM_ClusterShareRefsLB(benchmark::State &state)
{
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    const auto &an = analysisWithThreads(threads);
    util::Rng rng(6);
    for (auto _ : state) {
        auto map = placement::place(placement::Algorithm::ShareRefsLB,
                                    an, 4, rng);
        benchmark::DoNotOptimize(map.threadCount());
    }
}
BENCHMARK(BM_ClusterShareRefsLB)->Arg(8)->Arg(32)->Arg(64)->Arg(256);

/** Analysis of the wide-machine synthetic profile, memoized. */
const analysis::StaticAnalysis &
scaleAnalysis(uint32_t threads)
{
    static std::map<uint32_t, analysis::StaticAnalysis> cache;
    auto it = cache.find(threads);
    if (it == cache.end()) {
        auto traces = workload::generateTraces(
            experiment::syntheticScaleProfile(threads, 2000), 1);
        it = cache
                 .emplace(threads,
                          analysis::StaticAnalysis::analyze(traces))
                 .first;
    }
    return it->second;
}

/**
 * Thread-balanced SHARE-REFS at shapes where the processor count does
 * not divide the thread count (T = 8P/3, and 256 on 48): the
 * feasibility oracle must refute partitions on the way.
 */
void
BM_ClusterShareRefsShape(benchmark::State &state)
{
    const auto threads = static_cast<uint32_t>(state.range(0));
    const auto processors = static_cast<uint32_t>(state.range(1));
    const auto &an = scaleAnalysis(threads);
    util::Rng rng(8);
    for (auto _ : state) {
        auto map = placement::place(placement::Algorithm::ShareRefs, an,
                                    processors, rng);
        benchmark::DoNotOptimize(map.threadCount());
    }
}
BENCHMARK(BM_ClusterShareRefsShape)
    ->Args({40, 15})
    ->Args({128, 48})
    ->Args({256, 48});

void
BM_LoadBal(benchmark::State &state)
{
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    const auto &an = analysisWithThreads(threads);
    util::Rng rng(7);
    for (auto _ : state) {
        auto map = placement::place(placement::Algorithm::LoadBal, an,
                                    8, rng);
        benchmark::DoNotOptimize(map.threadCount());
    }
}
BENCHMARK(BM_LoadBal)->Arg(8)->Arg(64)->Arg(127);

} // namespace
