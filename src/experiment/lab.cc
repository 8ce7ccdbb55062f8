#include "experiment/lab.h"

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "obs/timer.h"
#include "sim/machine.h"
#include "util/error.h"

namespace tsp::experiment {

using placement::Algorithm;
using workload::AppId;

Lab::Lab(uint32_t scale) : scale_(scale) {}

RunMissSummary
RunResult::missSummary() const
{
    RunMissSummary s;
    s.compulsory = stats.totalMissCount(sim::MissKind::Compulsory);
    s.intraConflict =
        stats.totalMissCount(sim::MissKind::IntraConflict);
    s.interConflict =
        stats.totalMissCount(sim::MissKind::InterConflict);
    s.invalidation = stats.totalMissCount(sim::MissKind::Invalidation);
    s.memRefs = stats.totalMemRefs();
    s.invalidationsSent = stats.totalInvalidationsSent();
    s.upgrades = stats.totalUpgrades();
    return s;
}

const trace::TraceSet &
Lab::traces(AppId app)
{
    auto &entry = memoEntry(traces_, app);
    // The materializing caller counts a memo miss; everyone else
    // (including callers that blocked on the once-flag) counts a hit.
    bool materialized = false;
    std::call_once(entry.once, [&] {
        // A throw here leaves the once-flag unset, so a later caller
        // can retry the materialization — exactly what the chaos
        // harness leans on when lab.memo_init fires.
        TSP_FAULT_POINT("lab.memo_init");
        materialized = true;
        entry.value = workload::appTraces(app, scale_);
    });
    (materialized ? obs::labTraceMemoMisses()
                  : obs::labTraceMemoHits())
        .inc();
    return *entry.value;
}

const analysis::StaticAnalysis &
Lab::analysis(AppId app)
{
    auto &entry = memoEntry(analyses_, app);
    bool materialized = false;
    std::call_once(entry.once, [&] {
        materialized = true;
        entry.value = std::make_unique<analysis::StaticAnalysis>(
            analysis::StaticAnalysis::analyze(traces(app)));
    });
    (materialized ? obs::labAnalysisMemoMisses()
                  : obs::labAnalysisMemoHits())
        .inc();
    return *entry.value;
}

const std::vector<uint64_t> &
Lab::threadLength(AppId app)
{
    return analysis(app).threadLength();
}

const stats::PairMatrix &
Lab::coherenceMatrix(AppId app)
{
    return coherenceProbe(app).pairs;
}

const sim::CoherenceProbeResult &
Lab::coherenceProbe(AppId app)
{
    auto &entry = memoEntry(probes_, app);
    bool materialized = false;
    std::call_once(entry.once, [&] {
        materialized = true;
        sim::SimConfig base;
        base.cacheBytes = workload::scaledCacheBytes(app, scale_);
        entry.value = std::make_unique<sim::CoherenceProbeResult>(
            sim::measureCoherenceTraffic(traces(app), base));
    });
    (materialized ? obs::labProbeMemoMisses()
                  : obs::labProbeMemoHits())
        .inc();
    return *entry.value;
}

void
Lab::warmup(AppId app, bool coherence)
{
    obs::ScopedTimer timer(obs::labWarmupMillis());
    analysis(app);  // materializes traces(app) first
    if (coherence)
        coherenceProbe(app);
}

sim::SimConfig
Lab::configFor(AppId app, const MachinePoint &point,
               bool infiniteCache, MemSystem memSystem) const
{
    sim::SimConfig cfg;
    cfg.processors = point.processors;
    cfg.contexts = point.contexts;
    cfg.cacheBytes = infiniteCache
        ? 8ull * 1024 * 1024
        : workload::scaledCacheBytes(app, scale_);
    applyMemSystem(cfg, memSystem);
    cfg.validate();
    return cfg;
}

placement::PlacementMap
Lab::placementFor(AppId app, Algorithm alg, uint32_t processors)
{
    const analysis::StaticAnalysis &an = analysis(app);
    // Deterministic seed per (app, algorithm, processors).
    uint64_t seed = 0x51ed2701u;
    seed = seed * 1099511628211ull + static_cast<uint64_t>(app);
    seed = seed * 1099511628211ull + static_cast<uint64_t>(alg);
    seed = seed * 1099511628211ull + processors;
    util::Rng rng(seed);

    const stats::PairMatrix *coherence = nullptr;
    if (placement::needsCoherenceMatrix(alg))
        coherence = &coherenceMatrix(app);
    return placement::place(alg, an, processors, rng, coherence);
}

RunResult
Lab::run(AppId app, Algorithm alg, const MachinePoint &point,
         bool infiniteCache, MemSystem memSystem)
{
    // Validate the machine point first: an invalid point must surface
    // as FatalError (so a sweep can isolate the bad cell) before the
    // placement algorithms ever see its processor count.
    sim::SimConfig cfg = configFor(app, point, infiniteCache,
                                   memSystem);
    placement::PlacementMap placement =
        placementFor(app, alg, point.processors);
    return std::move(
        simulate(app, {{std::move(cfg), std::move(placement)}})
            .front()
            .value());
}

std::vector<Outcome<RunResult>>
Lab::simulate(AppId app, std::vector<sim::BatchLane> machines)
{
    const trace::TraceSet &set = traces(app);
    const std::vector<uint64_t> &lengths = threadLength(app);
    auto result = [&](placement::PlacementMap placement,
                      sim::SimStats stats) {
        RunResult r;
        r.executionTime = stats.executionTime();
        r.loadImbalance = placement.loadImbalance(lengths);
        r.placement = std::move(placement);
        r.stats = std::move(stats);
        return Outcome<RunResult>::success(std::move(r));
    };

    std::vector<Outcome<RunResult>> out;
    out.reserve(machines.size());
    if (machines.size() == 1) {
        sim::BatchLane &machine = machines.front();
        sim::SimStats stats =
            sim::simulate(machine.cfg, set, machine.placement);
        out.push_back(result(std::move(machine.placement),
                             std::move(stats)));
        return out;
    }
    std::vector<placement::PlacementMap> placements;
    placements.reserve(machines.size());
    for (const sim::BatchLane &machine : machines)
        placements.push_back(machine.placement);
    std::vector<sim::LaneResult> lanes =
        sim::BatchMachine(std::move(machines), set).run();
    for (size_t i = 0; i < lanes.size(); ++i) {
        out.push_back(lanes[i].ok
                          ? result(std::move(placements[i]),
                                   std::move(lanes[i].stats))
                          : Outcome<RunResult>::failure(lanes[i].error));
    }
    return out;
}

} // namespace tsp::experiment
