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
#include "sim/batch_machine.h"
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

    // Deduplicate: unique jobs simulate once, duplicates copy.
    // nextCopy chains each input to the next input of the same job.
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

    // Replay journaled cells; only the rest are simulated.
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

    // Group the pending cells: with batching on, up to options_.batch
    // cells of one application become lanes of a single lockstep
    // sim::BatchMachine over the app's shared traces. With batching
    // off every group is a singleton, the classic one-cell-per-task
    // shape. Results are bit-identical either way.
    const size_t lanesPerBatch =
        options_.batch > 1 ? options_.batch : 1;
    std::vector<std::vector<size_t>> groups;
    groups.reserve(pending.size());
    if (lanesPerBatch <= 1) {
        for (size_t u : pending)
            groups.push_back({u});
    } else {
        std::map<int, std::vector<size_t>> open;  // app -> filling
        for (size_t u : pending) {
            auto &bucket =
                open[static_cast<int>(jobs[uniqueJobs[u]].app)];
            bucket.push_back(u);
            if (bucket.size() >= lanesPerBatch) {
                groups.push_back(std::move(bucket));
                bucket.clear();
            }
        }
        for (auto &[app, bucket] : open) {
            if (!bucket.empty())
                groups.push_back(std::move(bucket));
        }
    }

    auto notePanic = [&] {
        std::lock_guard<std::mutex> lock(panicMutex);
        if (!panic)
            panic = std::current_exception();
        panicked.store(true, std::memory_order_relaxed);
    };

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

    auto sinkCell = [&](const RunJob &job, double cellMs) {
        obs::sweepCellMillis().observe(cellMs);
        if (obs::TraceSink *sink = obs::TraceSink::global()) {
            sink->complete(
                describeJob(job), "sweep", cellMs,
                {obs::TraceArg::str("app",
                                    workload::appName(job.app)),
                 obs::TraceArg::str(
                     "alg", placement::algorithmName(job.alg)),
                 obs::TraceArg::str("point", job.point.label())});
        }
    };

    // Poison stays descriptive: the cell reports *why* it has no
    // result, and a resume with the same checkpoint re-runs exactly
    // these cells.
    auto cancelCell = [&](size_t u) {
        unique[u] = Outcome<RunResult>::failure(options_.cancel->reason());
        cancelledCells.fetch_add(1, std::memory_order_relaxed);
        settle(u, 0.0);
    };

    auto runSingle = [&](size_t u) {
        const RunJob &job = jobs[uniqueJobs[u]];
        if (options_.cancel && options_.cancel->cancelled()) {
            cancelCell(u);
            return;
        }
        std::optional<util::Watchdog::Guard> guard;
        if (watchdog)
            guard.emplace(watchdog->watch(describeJob(job)));
        obs::StopWatch cellWatch;
        double cellMs = 0.0;
        try {
            if (options_.faultInjector)
                options_.faultInjector(job);
            RunResult result = lab_.run(job.app, job.alg, job.point,
                                        job.infiniteCache,
                                        job.memSystem);
            cellMs = cellWatch.elapsedMs();
            sinkCell(job, cellMs);
            journal(job, result);
            unique[u] = Outcome<RunResult>::success(std::move(result));
        } catch (const util::PanicError &) {
            notePanic();
            return;
        } catch (const std::exception &e) {
            unique[u] = Outcome<RunResult>::failure(e.what());
        }
        settle(u, unique[u].ok() ? cellMs : 0.0);
    };

    auto runBatch = [&](const std::vector<size_t> &group) {
        if (group.size() == 1) {
            runSingle(group.front());
            return;
        }
        if (options_.cancel && options_.cancel->cancelled()) {
            for (size_t u : group)
                cancelCell(u);
            return;
        }
        // Per-lane preparation keeps per-cell fault isolation: the
        // chaos hook, the machine-point validation and the placement
        // can each fail this lane alone.
        struct Prep
        {
            size_t u = 0;
            sim::SimConfig cfg;
            placement::PlacementMap placement;
        };
        std::vector<Prep> preps;
        preps.reserve(group.size());
        for (size_t u : group) {
            const RunJob &job = jobs[uniqueJobs[u]];
            try {
                if (options_.faultInjector)
                    options_.faultInjector(job);
                Prep prep;
                prep.u = u;
                prep.cfg = lab_.configFor(job.app, job.point,
                                          job.infiniteCache,
                                          job.memSystem);
                prep.placement = lab_.placementFor(
                    job.app, job.alg, job.point.processors);
                preps.push_back(std::move(prep));
            } catch (const util::PanicError &) {
                notePanic();
                return;
            } catch (const std::exception &e) {
                unique[u] = Outcome<RunResult>::failure(e.what());
                settle(u, 0.0);
            }
        }
        if (preps.empty())
            return;
        const RunJob &first = jobs[uniqueJobs[preps.front().u]];
        std::optional<util::Watchdog::Guard> guard;
        if (watchdog) {
            guard.emplace(watchdog->watch(
                util::concat(describeJob(first), " [batch of ",
                             preps.size(), " lanes]")));
        }
        obs::StopWatch batchWatch;
        size_t assigned = 0;
        double perLane = 0.0;
        try {
            const trace::TraceSet &traces = lab_.traces(first.app);
            const analysis::StaticAnalysis &an =
                lab_.analysis(first.app);
            std::vector<sim::BatchLane> lanes;
            lanes.reserve(preps.size());
            for (const Prep &prep : preps)
                lanes.push_back({prep.cfg, prep.placement});
            sim::BatchMachine machine(std::move(lanes), traces);
            std::vector<sim::LaneResult> results = machine.run();
            // The lanes ran interleaved on one thread; each cell's
            // attributed cost is its share of the batch wall time.
            perLane = batchWatch.elapsedMs() /
                      static_cast<double>(results.size());
            for (; assigned < preps.size(); ++assigned) {
                Prep &prep = preps[assigned];
                const RunJob &job = jobs[uniqueJobs[prep.u]];
                sim::LaneResult &lane = results[assigned];
                if (!lane.ok) {
                    unique[prep.u] =
                        Outcome<RunResult>::failure(lane.error);
                    continue;
                }
                RunResult result;
                result.placement = std::move(prep.placement);
                result.stats = std::move(lane.stats);
                result.executionTime = result.stats.executionTime();
                result.loadImbalance =
                    result.placement.loadImbalance(an.threadLength());
                sinkCell(job, perLane);
                journal(job, result);
                unique[prep.u] =
                    Outcome<RunResult>::success(std::move(result));
            }
        } catch (const util::PanicError &) {
            notePanic();
            return;
        } catch (const std::exception &e) {
            // Batch-level failure (trace materialization or a
            // poisoned batch): every lane without a result yet
            // reports it.
            for (size_t i = assigned; i < preps.size(); ++i) {
                unique[preps[i].u] =
                    Outcome<RunResult>::failure(e.what());
            }
        }
        for (const Prep &prep : preps)
            settle(prep.u, unique[prep.u].ok() ? perLane : 0.0);
    };

    util::parallelFor(options_.jobs, groups.size(), [&](size_t g) {
        if (panicked.load(std::memory_order_relaxed))
            return;
        runBatch(groups[g]);
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
    if (watchdog)
        stats_.watchdogFlagged =
            static_cast<size_t>(watchdog->overdueCount());

    obs::sweepCellsExecuted().add(stats_.executed);
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
