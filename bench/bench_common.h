/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: the
 * execution-time figure (Figures 2-4), the scale/jobs
 * banner, and wall-clock timing lines (so the parallel experiment
 * engine's speedup is visible in BENCH_* output).
 */

#ifndef TSP_BENCH_BENCH_COMMON_H
#define TSP_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>

#include "core/algorithms.h"
#include "experiment/lab.h"
#include "experiment/report.h"
#include "experiment/studies.h"
#include "obs/metric_defs.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "util/format.h"
#include "util/thread_pool.h"
#include "workload/suite.h"

namespace tsp::bench {

/**
 * Monotonic stopwatch for the bench timing lines — the obs layer's
 * StopWatch, so every `[wall]` line uses the same clock as the
 * metrics registry's timers.
 */
using WallTimer = obs::StopWatch;

/**
 * Print the standard wall-clock line: `[wall] <what>: N ms (jobs=J)`.
 * The duration also lands in the `bench.wall_ms` histogram, so a run
 * with TSP_METRICS_OUT set exports every timing line as JSON.
 */
inline void
printWallClock(const std::string &what, const WallTimer &timer,
               unsigned jobs = util::ThreadPool::defaultJobs())
{
    double ms = timer.elapsedMs();
    obs::benchWallMillis().observe(ms);
    std::printf("[wall] %s: %.1f ms (jobs=%u)\n", what.c_str(), ms,
                jobs);
}

/** Print the standard banner: workload scale, app config, pool width. */
inline void
banner(const std::string &what, experiment::Lab &lab,
       workload::AppId app)
{
    // Honor TSP_METRICS / TSP_METRICS_OUT for every bench binary.
    obs::configureFromEnv();
    const auto &p = workload::profile(app);
    std::printf("%s\n", what.c_str());
    std::printf("workload: %s (%u threads, mean length %s, scale 1/%u,"
                " cache %s)\n",
                p.name.c_str(), p.threads,
                util::fmtCompact(static_cast<double>(p.meanLength))
                    .c_str(),
                lab.scale(),
                util::fmtBytes(workload::scaledCacheBytes(
                                   app, lab.scale()))
                    .c_str());
    std::printf("parallel: %u jobs (TSP_JOBS overrides; results are "
                "identical at any width)\n\n",
                util::ThreadPool::defaultJobs());
}

/**
 * Run and print an execution-time figure (the layout of Figures 2-4,
 * see experiment::renderSweepTables) with the sweep's wall-clock
 * line. When TSP_OUT names a directory, also writes <csvName>.csv.
 *
 * Runs the sweep in degraded (fault-isolating) mode: a cell whose
 * simulation throws renders as FAILED and the failure summary prints
 * after the table instead of aborting the whole figure.
 */
inline void
printExecTimeFigure(const std::string &title, experiment::Lab &lab,
                    workload::AppId app,
                    const std::string &csvName = "")
{
    WallTimer timer;
    std::vector<experiment::JobFailure> failures;
    experiment::SweepOptions options;
    options.failures = &failures;
    auto points = experiment::execTimeStudy(
        lab, app, placement::figureAlgorithms(), options);
    printWallClock(title + " sweep", timer);

    if (!csvName.empty()) {
        if (auto dir = experiment::outputDirectory()) {
            std::string path = *dir + "/" + csvName + ".csv";
            experiment::writeExecTimeCsv(path, points);
            std::printf("(wrote %s)\n", path.c_str());
        }
    }

    std::printf("%s",
                experiment::renderSweepTables(title, points).c_str());
    std::printf("\n(execution time normalized to RANDOM; < 1.000 is "
                "faster than RANDOM)\n");
    std::string summary = experiment::renderFailureSummary(failures);
    if (!summary.empty())
        std::printf("\n%s", summary.c_str());
}

} // namespace tsp::bench

#endif // TSP_BENCH_BENCH_COMMON_H
