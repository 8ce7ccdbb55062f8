#include "experiment/parallel.h"

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include <cstdlib>

#include "experiment/checkpoint.h"
#include "obs/metric_defs.h"
#include "obs/timer.h"
#include "obs/trace_sink.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/watchdog.h"

namespace tsp::experiment {

namespace {

/** Orderable identity of a job, for deduplication. */
std::tuple<int, int, uint32_t, uint32_t, bool, int>
jobKey(const RunJob &job)
{
    return {static_cast<int>(job.app), static_cast<int>(job.alg),
            job.point.processors, job.point.contexts,
            job.infiniteCache, static_cast<int>(job.memSystem)};
}

/**
 * Everything one simulation depends on: the application's trace, the
 * machine's configuration and the placement's thread-to-processor
 * map. Cells with equal keys have equal RunResults.
 */
struct MachineKey
{
    workload::AppId app{};
    sim::SimConfig cfg;
    std::vector<uint32_t> assignment;

    auto operator<=>(const MachineKey &) const = default;
};

} // namespace

unsigned
defaultBatchLanes()
{
    static const unsigned cached = [] {
        const char *env = std::getenv("TSP_BATCH");
        if (!env || !*env)
            return 1u;
        char *end = nullptr;
        unsigned long long v = std::strtoull(env, &end, 10);
        if (end == env || *end != '\0' || v == 0)
            return 1u;
        return static_cast<unsigned>(v);
    }();
    return cached;
}

std::string
describeJob(const RunJob &job)
{
    return workload::appName(job.app) + "/" +
           placement::algorithmName(job.alg) + "@" +
           job.point.label() +
           (job.infiniteCache ? " (8MB cache)" : "") +
           (job.memSystem != MemSystem::Flat1994
                ? " [" + memSystemName(job.memSystem) + "]"
                : "");
}

std::string
JobFailure::describe() const
{
    return describeJob(job) + ": " + error;
}

ParallelRunner::ParallelRunner(Lab &lab, unsigned jobs) : lab_(lab)
{
    options_.jobs = jobs > 0 ? jobs : 1;
}

ParallelRunner::ParallelRunner(Lab &lab, const SweepOptions &options)
    : lab_(lab), options_(options)
{
    if (options_.jobs == 0)
        options_.jobs = 1;
}

std::vector<Outcome<RunResult>>
ParallelRunner::runAllOutcomes(const std::vector<RunJob> &jobs)
{
    stats_ = SweepStats{};
    stats_.total = jobs.size();

    // First grouping step: identical jobs are one cell, answered once
    // and copied. nextCopy chains each input to the next input of the
    // same job.
    std::vector<size_t> uniqueOf(jobs.size());
    std::vector<size_t> nextCopy(jobs.size(), jobs.size());
    std::vector<size_t> uniqueJobs, lastCopy;
    std::map<std::tuple<int, int, uint32_t, uint32_t, bool, int>,
             size_t>
        firstSeen;
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto [it, inserted] =
            firstSeen.try_emplace(jobKey(jobs[i]), uniqueJobs.size());
        if (inserted) {
            uniqueJobs.push_back(i);
            lastCopy.push_back(i);
        } else {
            nextCopy[lastCopy[it->second]] = i;
            lastCopy[it->second] = i;
        }
        uniqueOf[i] = it->second;
    }
    stats_.unique = uniqueJobs.size();

    std::vector<Outcome<RunResult>> unique(uniqueJobs.size());

    // Hand a settled cell to onCell under every input index it
    // answers, one call at a time.
    std::mutex onCellMutex;
    auto settle = [&](size_t u, double wallMs) {
        if (!options_.onCell)
            return;
        std::lock_guard<std::mutex> lock(onCellMutex);
        for (size_t i = uniqueJobs[u]; i < jobs.size(); i = nextCopy[i])
            options_.onCell(i, unique[u], wallMs);
    };

    // Replay journaled cells; only the rest are answered fresh.
    std::vector<size_t> pending;
    pending.reserve(uniqueJobs.size());
    for (size_t u = 0; u < uniqueJobs.size(); ++u) {
        if (options_.checkpoint) {
            if (auto hit =
                    options_.checkpoint->lookup(jobs[uniqueJobs[u]])) {
                unique[u] =
                    Outcome<RunResult>::success(std::move(*hit));
                ++stats_.fromCheckpoint;
                settle(u, 0.0);
                continue;
            }
        }
        pending.push_back(u);
    }
    auto pendingJob = [&](size_t p) -> const RunJob & {
        return jobs[uniqueJobs[pending[p]]];
    };

    std::optional<util::Watchdog> watchdog;
    if (options_.jobDeadline.count() > 0)
        watchdog.emplace(options_.jobDeadline);

    // PanicError means a library bug: fail the sweep fast. The flag
    // short-circuits iterations that have not started yet; the first
    // panic (by schedule) is rethrown after every thread joins.
    std::atomic<bool> panicked{false};
    std::exception_ptr panic;
    std::mutex panicMutex;
    std::atomic<size_t> cancelledCells{0};

    auto notePanic = [&] {
        std::lock_guard<std::mutex> lock(panicMutex);
        if (!panic)
            panic = std::current_exception();
        panicked.store(true, std::memory_order_relaxed);
    };

    auto cancelled = [&] {
        return options_.cancel && options_.cancel->cancelled();
    };

    // Poison stays descriptive: the cell reports *why* it has no
    // result, and a resume with the same checkpoint re-runs exactly
    // these cells.
    auto cancelCell = [&](size_t p) {
        unique[pending[p]] =
            Outcome<RunResult>::failure(options_.cancel->reason());
        cancelledCells.fetch_add(1, std::memory_order_relaxed);
        settle(pending[p], 0.0);
    };

    // Prepare every pending cell at the sweep width: the chaos hook,
    // the machine point's validation and the placement can each fail
    // the cell alone. A placement is computed once per (app,
    // algorithm, processors); a throw leaves its once-flag unset, so
    // the next cell that needs it tries again.
    struct PlacementSlot
    {
        std::once_flag once;
        placement::PlacementMap map;
    };
    struct Prepared
    {
        bool ok = false;
        sim::SimConfig cfg;
        size_t slot = 0;
    };
    std::vector<Prepared> prepared(pending.size());
    std::map<std::tuple<int, int, uint32_t>, size_t> slotOf;
    for (size_t p = 0; p < pending.size(); ++p) {
        const RunJob &job = pendingJob(p);
        prepared[p].slot =
            slotOf
                .try_emplace({static_cast<int>(job.app),
                              static_cast<int>(job.alg),
                              job.point.processors},
                             slotOf.size())
                .first->second;
    }
    std::vector<PlacementSlot> slots(slotOf.size());
    std::atomic<size_t> placements{0};

    util::parallelFor(options_.jobs, pending.size(), [&](size_t p) {
        if (panicked.load(std::memory_order_relaxed))
            return;
        if (cancelled()) {
            cancelCell(p);
            return;
        }
        const RunJob &job = pendingJob(p);
        std::optional<util::Watchdog::Guard> guard;
        if (watchdog)
            guard.emplace(watchdog->watch(describeJob(job)));
        Prepared &prep = prepared[p];
        try {
            if (options_.faultInjector)
                options_.faultInjector(job);
            prep.cfg = lab_.configFor(job.app, job.point,
                                      job.infiniteCache, job.memSystem);
            PlacementSlot &slot = slots[prep.slot];
            std::call_once(slot.once, [&] {
                slot.map = lab_.placementFor(job.app, job.alg,
                                             job.point.processors);
                placements.fetch_add(1, std::memory_order_relaxed);
            });
            prep.ok = true;
        } catch (const util::PanicError &) {
            notePanic();
        } catch (const std::exception &e) {
            unique[pending[p]] = Outcome<RunResult>::failure(e.what());
            settle(pending[p], 0.0);
        }
    });

    if (panic)
        std::rethrow_exception(panic);

    // Second grouping step: prepared cells with the same trace,
    // configuration and placement are one machine, simulated once.
    // Each machine lists its cells as positions in pending.
    std::vector<std::vector<size_t>> machines;
    {
        std::map<MachineKey, size_t> machineOf;
        for (size_t p = 0; p < pending.size(); ++p) {
            if (!prepared[p].ok)
                continue;
            auto [it, inserted] = machineOf.try_emplace(
                MachineKey{pendingJob(p).app, prepared[p].cfg,
                           slots[prepared[p].slot].map.assignment()},
                machines.size());
            if (inserted)
                machines.emplace_back();
            machines[it->second].push_back(p);
        }
    }

    // With batching on, up to options_.batch machines of one
    // application become the lanes of one lockstep task over the
    // app's shared traces; with batching off every machine is a task
    // of its own. Results are bit-identical either way.
    const size_t lanesPerTask = options_.batch > 1 ? options_.batch : 1;
    std::vector<std::vector<size_t>> tasks;  // each task's machines
    tasks.reserve(machines.size());
    if (lanesPerTask == 1) {
        for (size_t m = 0; m < machines.size(); ++m)
            tasks.push_back({m});
    } else {
        std::map<int, std::vector<size_t>> open;  // app -> filling
        for (size_t m = 0; m < machines.size(); ++m) {
            auto &bucket = open[static_cast<int>(
                pendingJob(machines[m].front()).app)];
            bucket.push_back(m);
            if (bucket.size() >= lanesPerTask) {
                tasks.push_back(std::move(bucket));
                bucket.clear();
            }
        }
        for (auto &[app, bucket] : open) {
            if (!bucket.empty())
                tasks.push_back(std::move(bucket));
        }
    }

    auto journal = [&](const RunJob &job, const RunResult &result) {
        if (!options_.checkpoint)
            return;
        try {
            options_.checkpoint->record(job, result);
        } catch (const std::exception &e) {
            // A journaling failure must not fail the cell — the
            // result is still good, only resumability of this cell
            // is lost (the store counts the failure).
            util::warn(util::concat("checkpoint record failed for ",
                                    describeJob(job), ": ",
                                    e.what()));
        }
    };

    // Hand machine m's outcome to each of its cells, journaled under
    // the cell's own key; each settles with the simulation's time.
    std::vector<double> machineMs(machines.size(), 0.0);
    auto answer = [&](size_t m, const Outcome<RunResult> &outcome,
                      double ms) {
        const std::vector<size_t> &members = machines[m];
        const RunJob &first = pendingJob(members.front());
        if (outcome.ok()) {
            machineMs[m] = ms;
            obs::sweepCellMillis().observe(ms);
            if (obs::TraceSink *sink = obs::TraceSink::global()) {
                sink->complete(
                    describeJob(first), "sweep", ms,
                    {obs::TraceArg::str("app",
                                        workload::appName(first.app)),
                     obs::TraceArg::str(
                         "alg", placement::algorithmName(first.alg)),
                     obs::TraceArg::str("point", first.point.label()),
                     obs::TraceArg::num(
                         "cells",
                         static_cast<uint64_t>(members.size()))});
            }
        }
        for (size_t p : members) {
            if (outcome.ok())
                journal(pendingJob(p), outcome.value());
            unique[pending[p]] = outcome;
        }
        for (size_t p : members)
            settle(pending[p], outcome.ok() ? ms : 0.0);
    };

    auto runTask = [&](const std::vector<size_t> &task) {
        if (cancelled()) {
            for (size_t m : task) {
                for (size_t p : machines[m])
                    cancelCell(p);
            }
            return;
        }
        const RunJob &first = pendingJob(machines[task.front()].front());
        std::optional<util::Watchdog::Guard> guard;
        if (watchdog) {
            guard.emplace(watchdog->watch(
                task.size() == 1
                    ? describeJob(first)
                    : util::concat(describeJob(first), " [batch of ",
                                   task.size(), " lanes]")));
        }
        std::vector<sim::BatchLane> lanes;
        lanes.reserve(task.size());
        for (size_t m : task) {
            const Prepared &prep = prepared[machines[m].front()];
            lanes.push_back({prep.cfg, slots[prep.slot].map});
        }
        obs::StopWatch watch;
        std::vector<Outcome<RunResult>> results;
        try {
            results = lab_.simulate(first.app, std::move(lanes));
        } catch (const util::PanicError &) {
            notePanic();
            return;
        } catch (const std::exception &e) {
            // The whole task failed (trace materialization, or the
            // one machine's simulation): each of its cells reports it.
            results.assign(task.size(),
                           Outcome<RunResult>::failure(e.what()));
        }
        // Lanes run interleaved on one thread; each machine's
        // attributed cost is its share of the task's wall time.
        const double ms =
            watch.elapsedMs() / static_cast<double>(task.size());
        for (size_t k = 0; k < task.size(); ++k)
            answer(task[k], results[k], ms);
    };

    util::parallelFor(options_.jobs, tasks.size(), [&](size_t t) {
        if (panicked.load(std::memory_order_relaxed))
            return;
        runTask(tasks[t]);
    });

    if (panic)
        std::rethrow_exception(panic);

    stats_.cancelled = cancelledCells.load();
    stats_.executed = pending.size() - stats_.cancelled;
    for (size_t u : pending) {
        if (!unique[u].ok())
            ++stats_.failed;
    }
    stats_.failed -= stats_.cancelled;  // cancelled != genuinely failed
    stats_.placements = placements.load();
    size_t shared = 0;
    for (size_t m = 0; m < machines.size(); ++m) {
        if (!unique[pending[machines[m].front()]].ok())
            continue;
        ++stats_.simulated;
        shared += machines[m].size() - 1;
        stats_.simulatedMs += machineMs[m];
    }
    if (watchdog)
        stats_.watchdogFlagged =
            static_cast<size_t>(watchdog->overdueCount());

    obs::sweepCellsExecuted().add(stats_.executed);
    obs::sweepCellsShared().add(shared);
    obs::sweepCellsFromCheckpoint().add(stats_.fromCheckpoint);
    obs::sweepCellsFailed().add(stats_.failed);

    std::vector<Outcome<RunResult>> out(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        out[i] = unique[uniqueOf[i]];
    if (options_.statsOut)
        *options_.statsOut = stats_;
    return out;
}

std::vector<RunResult>
ParallelRunner::runAll(const std::vector<RunJob> &jobs)
{
    auto outcomes = runAllOutcomes(jobs);
    std::vector<RunResult> out(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!outcomes[i].ok()) {
            util::fatal("sweep job " + describeJob(jobs[i]) +
                        " failed: " + outcomes[i].error());
        }
        out[i] = std::move(outcomes[i].value());
    }
    return out;
}

} // namespace tsp::experiment
