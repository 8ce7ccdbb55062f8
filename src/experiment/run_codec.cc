#include "experiment/run_codec.h"

#include "util/error.h"

namespace tsp::experiment::codec {

void
writeRunResult(ByteWriter &w, const RunResult &result)
{
    const sim::SimStats &stats = result.stats;
    util::panicIf(stats.profiledSharing,
                  "the run-result codec does not carry a sharing "
                  "profile");
    const auto &assign = result.placement.assignment();
    w.u32(result.placement.processors());
    w.u64(assign.size());
    for (uint32_t proc : assign)
        w.u32(proc);

    w.u64(result.executionTime);
    w.f64(result.loadImbalance);

    w.u64(stats.procs.size());
    for (const auto &p : stats.procs) {
        w.u64(p.busyCycles);
        w.u64(p.switchCycles);
        w.u64(p.idleCycles);
        w.u64(p.finishTime);
        w.u64(p.barrierCycles);
        w.u64(p.instructions);
        w.u64(p.memRefs);
        w.u64(p.hits);
        for (uint64_t m : p.misses)
            w.u64(m);
        w.u64(p.upgrades);
        w.u64(p.invalidationsSent);
        w.u64(p.invalidationsReceived);
        w.u64(p.writebacks);
    }

    w.u64(stats.sharingCompulsoryMisses);
    w.u64(stats.networkTransactions);
    w.u64(stats.networkQueueingCycles);
    w.u64(stats.networkMaxQueueing);

    w.u64(stats.l2Hits);
    w.u64(stats.l2Misses);
    w.u64(stats.l2Writebacks);
    w.u64(stats.l2BackInvalidations);
}

RunResult
readRunResult(ByteReader &r)
{
    RunResult result;

    uint32_t processors = r.u32();
    uint64_t threads = r.u64();
    util::fatalIf(threads > 65536,
                  "serialized placement unreasonably large");
    std::vector<uint32_t> assign(static_cast<size_t>(threads));
    for (auto &proc : assign)
        proc = r.u32();
    result.placement =
        placement::PlacementMap(processors, std::move(assign));

    result.executionTime = r.u64();
    result.loadImbalance = r.f64();

    sim::SimStats &stats = result.stats;
    uint64_t procCount = r.u64();
    util::fatalIf(procCount > 65536,
                  "serialized processor stats unreasonably large");
    stats.procs.resize(static_cast<size_t>(procCount));
    for (auto &p : stats.procs) {
        p.busyCycles = r.u64();
        p.switchCycles = r.u64();
        p.idleCycles = r.u64();
        p.finishTime = r.u64();
        p.barrierCycles = r.u64();
        p.instructions = r.u64();
        p.memRefs = r.u64();
        p.hits = r.u64();
        for (auto &m : p.misses)
            m = r.u64();
        p.upgrades = r.u64();
        p.invalidationsSent = r.u64();
        p.invalidationsReceived = r.u64();
        p.writebacks = r.u64();
    }

    stats.sharingCompulsoryMisses = r.u64();
    stats.networkTransactions = r.u64();
    stats.networkQueueingCycles = r.u64();
    stats.networkMaxQueueing = r.u64();

    stats.l2Hits = r.u64();
    stats.l2Misses = r.u64();
    stats.l2Writebacks = r.u64();
    stats.l2BackInvalidations = r.u64();
    return result;
}

} // namespace tsp::experiment::codec
