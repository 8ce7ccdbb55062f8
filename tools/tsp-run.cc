/**
 * @file
 * tsp_run — one-shot experiment CLI: place one suite application with
 * one algorithm on one machine configuration and print the full
 * statistics. Also hosts the fault-tolerant sweep driver.
 *
 *   tsp_run <app> <algorithm> <processors> [options]
 *   tsp_run sweep <app> [options]
 *   tsp_run hierarchy <app> [options]
 *   tsp_run chaos [options]
 *   tsp_run sample [options]
 *
 * options (single run):
 *   --contexts N     hardware contexts/processor (default: fit all)
 *   --cache BYTES    cache size (default: the app's paper cache,
 *                    scaled)
 *   --assoc N        associativity (default 1, direct-mapped)
 *   --latency N      memory latency cycles (default 50)
 *   --switch N       context switch cycles (default 6)
 *   --scale N        workload scale divisor (default TSP_SCALE or 8)
 *   --infinite       use the 8 MB "infinite" cache
 *   --profile        collect the write-run sharing profile
 *   --jobs N         worker threads for parallel experiment drivers
 *                    (overrides TSP_JOBS; results are identical at
 *                    any width)
 *   --metrics-out PATH  enable the metrics registry and export it as
 *                       JSON to PATH on completion
 *   --fault SPEC     arm one deterministic fault: site:nth[+]:kind
 *                    (see docs/robustness.md; same as TSP_FAULT)
 *   --paranoid N     run the coherence invariant checker every N
 *                    memory references (0 disables; same as
 *                    TSP_PARANOID)
 *
 * options (sweep mode):
 *   --scale N          workload scale divisor
 *   --jobs N           worker threads
 *   --batch N          lanes per batched lockstep simulation: up to N
 *                      cells of one application advance together over
 *                      its shared traces (bit-identical results;
 *                      overrides TSP_BATCH; 1 = off)
 *   --checkpoint PATH  journal completed cells to the result store
 *                      PATH; a re-run replays it and simulates only
 *                      the missing cells (crash-safe resume). The
 *                      same file works as `tsp-serve --store PATH`
 *   --deadline MS      watchdog: warn when one cell runs longer than
 *                      MS milliseconds
 *   --metrics-out PATH enable the metrics registry and export it as
 *                      JSON to PATH on completion
 *   --trace-out PATH   write a per-cell Chrome trace-event timeline
 *                      (JSONL; open in chrome://tracing or Perfetto)
 *   --fault SPEC       arm one deterministic fault (site:nth[+]:kind)
 *   --paranoid N       invariant-check every N references
 *
 * options (hierarchy mode — placement sensitivity across the
 * memory-system variants of docs/memory_system.md; takes the same
 * flags as sweep mode, plus):
 *   --csv PATH         write the full study as CSV to PATH
 *
 * options (chaos mode — run the fault-injection matrix, see
 * docs/robustness.md):
 *   --scale N   --jobs N   --app NAME   --workdir PATH   --verbose
 *
 * options (sample mode — BBV phase-sampling error-vs-speed study,
 * docs/performance.md "Sampling methodology"):
 *   --app NAME       add a suite application (repeatable; default:
 *                    all of them)
 *   --threads N      add a synthetic scalable workload with N
 *                    threads on N processors (up to 1024)
 *   --mean N         synthetic workload mean thread length
 *   --scale N        workload scale divisor
 *   --length-mult N  thread-length multiplier (sampling pays off on
 *                    long traces; 8-32x shows the >=20x regime)
 *   --window LIST    comma-separated window sizes, in per-thread
 *                    references (default 20000,50000)
 *   --clusters LIST  comma-separated phase counts (default 4,8)
 *   --warmup N       warmup windows per representative (default 1)
 *   --csv PATH       write the study as CSV to PATH
 *
 * Signals: a sweep receiving SIGINT/SIGTERM cancels cooperatively —
 * in-flight cells finish and are journaled, the checkpoint, metrics
 * export and trace timeline are flushed, and the process exits with
 * code 4 (resume by re-running with the same --checkpoint).
 *
 * Exit codes: 0 success; 1 error; 2 usage; 3 degraded (failed cells /
 * chaos matrix failures); 4 interrupted by signal.
 *
 * All numeric flags are parsed strictly: non-numeric, negative or
 * overflowing values fail with a message naming the flag.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "experiment/chaos.h"
#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/report.h"
#include "experiment/sampling_study.h"
#include "experiment/studies.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/machine.h"
#include "svc/chaos_leg.h"
#include "util/bits.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/format.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/suite.h"

namespace {

using namespace tsp;

/** Exit codes (also documented in the file header). */
constexpr int kExitDegraded = 3;
constexpr int kExitInterrupted = 4;

/** Tripped by SIGINT/SIGTERM; polled by the sweep between cells. */
util::CancelToken gCancel;
volatile std::sig_atomic_t gSignal = 0;

extern "C" void
onSignal(int sig)
{
    // Only async-signal-safe operations: set two atomics and return.
    // The sweep loop notices, finishes in-flight cells, flushes the
    // checkpoint/metrics/trace, and exits with kExitInterrupted.
    gSignal = sig;
    gCancel.requestCancel();
}

void
installSignalHandlers()
{
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tsp_run <app> <algorithm> <processors> [options]\n"
        "       tsp_run sweep <app> [--checkpoint PATH]"
        " [--deadline MS]\n"
        "       tsp_run hierarchy <app> [--csv PATH]"
        " [--checkpoint PATH]\n"
        "       tsp_run chaos [--scale N] [--app NAME]"
        " [--workdir PATH] [--verbose]\n"
        "       tsp_run sample [--app NAME ...] [--threads N]"
        " [--mean N] [--scale N]\n"
        "               [--length-mult N] [--window LIST]"
        " [--clusters LIST]\n"
        "               [--warmup N] [--csv PATH]\n"
        "  --contexts N  --cache BYTES  --assoc N  --latency N\n"
        "  --switch N    --scale N      --infinite --profile\n"
        "  --jobs N      --metrics-out PATH  --trace-out PATH\n"
        "  --fault site:nth[+]:kind    --paranoid N\n"
        "  --checkpoint PATH  result store to resume from and journal\n"
        "                to (the same file as tsp_serve --store)\n"
        "  --batch N     lanes per lockstep simulation batch in sweep\n"
        "                mode (default $TSP_BATCH, else 1 = off)\n"
        "algorithms: ");
    for (placement::Algorithm alg : placement::allAlgorithms())
        std::fprintf(stderr, "%s ",
                     placement::algorithmName(alg).c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/**
 * Fault-tolerant figure sweep: execTimeStudy in degraded mode with an
 * optional checkpoint journal and per-cell watchdog. Failed cells
 * render as FAILED; the failure summary and the sweep statistics
 * (cells replayed from the checkpoint vs simulated vs failed) print
 * after the table.
 */
int
runSweep(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    workload::AppId app = workload::appByName(argv[2]);

    uint32_t scale = workload::defaultScale();
    unsigned jobs = util::ThreadPool::defaultJobs();
    unsigned batch = experiment::defaultBatchLanes();
    std::string checkpointPath;
    std::string metricsPath;
    std::string tracePath;
    uint64_t deadlineMs = 0;
    for (int i = 3; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            util::fatalIf(i + 1 >= argc,
                          std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--scale"))
            scale = util::parseUnsigned32(next("--scale"), "--scale",
                                          1);
        else if (!std::strcmp(argv[i], "--jobs"))
            jobs = util::parseUnsigned32(next("--jobs"), "--jobs", 0,
                                         4096);
        else if (!std::strcmp(argv[i], "--batch"))
            batch = util::parseUnsigned32(next("--batch"), "--batch",
                                          1, 4096);
        else if (!std::strcmp(argv[i], "--checkpoint"))
            checkpointPath = next("--checkpoint");
        else if (!std::strcmp(argv[i], "--deadline"))
            deadlineMs = util::parseUnsigned(next("--deadline"),
                                             "--deadline", 1);
        else if (!std::strcmp(argv[i], "--metrics-out"))
            metricsPath = next("--metrics-out");
        else if (!std::strcmp(argv[i], "--trace-out"))
            tracePath = next("--trace-out");
        else if (!std::strcmp(argv[i], "--fault"))
            fault::arm(next("--fault"));
        else if (!std::strcmp(argv[i], "--paranoid"))
            sim::setDefaultParanoidEvery(util::parseUnsigned(
                next("--paranoid"), "--paranoid"));
        else
            return usage();
    }

    if (!metricsPath.empty())
        obs::setMetricsEnabled(true);
    installSignalHandlers();
    std::optional<obs::TraceSink> trace;
    if (!tracePath.empty()) {
        trace.emplace(tracePath, "tsp_run sweep");
        obs::TraceSink::installGlobal(&*trace);
    }

    experiment::Lab lab(scale);
    std::optional<experiment::Checkpoint> checkpoint;
    if (!checkpointPath.empty()) {
        checkpoint.emplace(checkpointPath, scale);
        if (checkpoint->size())
            std::printf("checkpoint: %s holds %zu completed cells\n",
                        checkpointPath.c_str(), checkpoint->size());
    }

    std::vector<experiment::JobFailure> failures;
    experiment::SweepStats stats;
    std::vector<double> cellMillis;
    experiment::SweepOptions options;
    options.jobs = jobs;
    options.batch = batch;
    options.checkpoint = checkpoint ? &*checkpoint : nullptr;
    options.failures = &failures;
    options.statsOut = &stats;
    options.jobDeadline = std::chrono::milliseconds(deadlineMs);
    options.cellMillisOut = &cellMillis;
    options.cancel = &gCancel;

    auto points = experiment::execTimeStudy(
        lab, app, placement::figureAlgorithms(), options);

    // One row per algorithm, one column per machine point.
    std::vector<std::string> cols;
    for (const auto &pt : points) {
        std::string label = pt.point.label();
        if (std::find(cols.begin(), cols.end(), label) == cols.end())
            cols.push_back(label);
    }
    util::TextTable table(workload::appName(app) +
                          " execution time (normalized to RANDOM)");
    std::vector<std::string> header{"algorithm"};
    header.insert(header.end(), cols.begin(), cols.end());
    table.setHeader(header);
    for (placement::Algorithm alg : placement::figureAlgorithms()) {
        std::vector<std::string> row{placement::algorithmName(alg)};
        row.resize(1 + cols.size());
        for (const auto &pt : points) {
            if (pt.alg != alg)
                continue;
            auto it = std::find(cols.begin(), cols.end(),
                                pt.point.label());
            row[1 + static_cast<size_t>(it - cols.begin())] =
                pt.failed ? "FAILED"
                          : util::fmtFixed(pt.normalizedToRandom, 3);
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\nsweep: %zu cells (%zu unique), %zu replayed from "
                "checkpoint, %zu simulated, %zu failed\n",
                stats.total, stats.unique, stats.fromCheckpoint,
                stats.executed, stats.failed);
    if (stats.cancelled)
        std::printf("cancelled: %zu cells skipped (signal %d)\n",
                    stats.cancelled, static_cast<int>(gSignal));
    if (stats.executed) {
        double sum = 0.0, maxMs = 0.0;
        for (double ms : cellMillis) {
            sum += ms;
            maxMs = std::max(maxMs, ms);
        }
        std::printf("cell wall time: %s ms total (max %s ms per "
                    "cell)\n",
                    util::fmtFixed(sum, 1).c_str(),
                    util::fmtFixed(maxMs, 1).c_str());
    }
    if (stats.watchdogFlagged)
        std::printf("watchdog: %zu cells exceeded the %llu ms "
                    "deadline\n",
                    stats.watchdogFlagged,
                    static_cast<unsigned long long>(deadlineMs));
    std::string summary = experiment::renderFailureSummary(failures);
    if (!summary.empty())
        std::printf("%s", summary.c_str());

    if (trace) {
        obs::TraceSink::installGlobal(nullptr);
        trace->close();
        std::printf("(wrote %s: %llu trace events)\n",
                    tracePath.c_str(),
                    static_cast<unsigned long long>(trace->events()));
    }
    if (!metricsPath.empty()) {
        obs::Registry::instance().writeJsonFile(metricsPath);
        std::printf("(wrote %s)\n", metricsPath.c_str());
    }
    if (gCancel.cancelled()) {
        // Everything above already flushed: the checkpoint journals
        // each cell on completion, and the trace/metrics files were
        // just closed. Resuming re-runs only the skipped cells.
        std::printf("interrupted: resume with the same --checkpoint "
                    "to finish the remaining cells\n");
        return kExitInterrupted;
    }
    return failures.empty() ? 0 : kExitDegraded;
}

/**
 * `tsp_run hierarchy <app>`: the memory-system bridge study. Runs the
 * figure algorithms at every standard machine point under each
 * memory-system variant (flat-1994 -> shared-l2 -> moesi ->
 * contended) and prints one normalized-to-RANDOM table per variant,
 * plus the shared-L2 hit rate and interconnect queueing observed at
 * the largest machine point. Same robustness surface as sweep mode
 * (checkpoint, watchdog, cooperative cancel); --csv writes the full
 * study for plotting.
 */
int
runHierarchy(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    workload::AppId app = workload::appByName(argv[2]);

    uint32_t scale = workload::defaultScale();
    unsigned jobs = util::ThreadPool::defaultJobs();
    unsigned batch = experiment::defaultBatchLanes();
    std::string checkpointPath;
    std::string metricsPath;
    std::string csvPath;
    uint64_t deadlineMs = 0;
    for (int i = 3; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            util::fatalIf(i + 1 >= argc,
                          std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--scale"))
            scale = util::parseUnsigned32(next("--scale"), "--scale",
                                          1);
        else if (!std::strcmp(argv[i], "--jobs"))
            jobs = util::parseUnsigned32(next("--jobs"), "--jobs", 0,
                                         4096);
        else if (!std::strcmp(argv[i], "--batch"))
            batch = util::parseUnsigned32(next("--batch"), "--batch",
                                          1, 4096);
        else if (!std::strcmp(argv[i], "--checkpoint"))
            checkpointPath = next("--checkpoint");
        else if (!std::strcmp(argv[i], "--deadline"))
            deadlineMs = util::parseUnsigned(next("--deadline"),
                                             "--deadline", 1);
        else if (!std::strcmp(argv[i], "--metrics-out"))
            metricsPath = next("--metrics-out");
        else if (!std::strcmp(argv[i], "--csv"))
            csvPath = next("--csv");
        else if (!std::strcmp(argv[i], "--fault"))
            fault::arm(next("--fault"));
        else if (!std::strcmp(argv[i], "--paranoid"))
            sim::setDefaultParanoidEvery(util::parseUnsigned(
                next("--paranoid"), "--paranoid"));
        else
            return usage();
    }

    if (!metricsPath.empty())
        obs::setMetricsEnabled(true);
    installSignalHandlers();

    experiment::Lab lab(scale);
    std::optional<experiment::Checkpoint> checkpoint;
    if (!checkpointPath.empty()) {
        checkpoint.emplace(checkpointPath, scale);
        if (checkpoint->size())
            std::printf("checkpoint: %s holds %zu completed cells\n",
                        checkpointPath.c_str(), checkpoint->size());
    }

    std::vector<experiment::JobFailure> failures;
    experiment::SweepStats stats;
    experiment::SweepOptions options;
    options.jobs = jobs;
    options.batch = batch;
    options.checkpoint = checkpoint ? &*checkpoint : nullptr;
    options.failures = &failures;
    options.statsOut = &stats;
    options.jobDeadline = std::chrono::milliseconds(deadlineMs);
    options.cancel = &gCancel;

    auto points = experiment::hierarchyStudy(
        lab, app, placement::figureAlgorithms(), options);

    // One table per memory system: rows are algorithms, columns are
    // machine points, cells normalized to RANDOM under that system.
    std::vector<std::string> cols;
    for (const auto &pt : points) {
        std::string label = pt.point.label();
        if (std::find(cols.begin(), cols.end(), label) == cols.end())
            cols.push_back(label);
    }
    for (experiment::MemSystem ms : experiment::allMemSystems()) {
        util::TextTable table(
            workload::appName(app) + " on " +
            experiment::memSystemName(ms) +
            " (normalized to RANDOM on the same memory system)");
        std::vector<std::string> header{"algorithm"};
        header.insert(header.end(), cols.begin(), cols.end());
        table.setHeader(header);
        for (placement::Algorithm alg :
             placement::figureAlgorithms()) {
            std::vector<std::string> row{
                placement::algorithmName(alg)};
            row.resize(1 + cols.size());
            for (const auto &pt : points) {
                if (pt.memSystem != ms || pt.alg != alg)
                    continue;
                auto it = std::find(cols.begin(), cols.end(),
                                    pt.point.label());
                row[1 + static_cast<size_t>(it - cols.begin())] =
                    pt.failed
                        ? "FAILED"
                        : util::fmtFixed(pt.normalizedToRandom, 3);
            }
            table.addRow(row);
        }
        table.print();

        // Memory-system behavior at the largest machine point, from
        // the RANDOM cell (every algorithm sees the same hierarchy).
        for (auto rit = points.rbegin(); rit != points.rend();
             ++rit) {
            if (rit->memSystem != ms ||
                rit->alg != placement::Algorithm::Random ||
                rit->failed)
                continue;
            uint64_t lookups = rit->l2Hits + rit->l2Misses;
            if (lookups || rit->netQueueingCycles) {
                std::printf("  at %s: L2 hit rate %s (%llu lookups), "
                            "interconnect queueing %llu cycles\n",
                            rit->point.label().c_str(),
                            lookups
                                ? util::fmtPercent(
                                      static_cast<double>(
                                          rit->l2Hits) /
                                      static_cast<double>(lookups))
                                      .c_str()
                                : "n/a",
                            static_cast<unsigned long long>(lookups),
                            static_cast<unsigned long long>(
                                rit->netQueueingCycles));
            }
            break;
        }
        std::printf("\n");
    }

    std::printf("hierarchy: %zu cells (%zu unique), %zu replayed "
                "from checkpoint, %zu simulated, %zu failed\n",
                stats.total, stats.unique, stats.fromCheckpoint,
                stats.executed, stats.failed);
    if (stats.cancelled)
        std::printf("cancelled: %zu cells skipped (signal %d)\n",
                    stats.cancelled, static_cast<int>(gSignal));
    std::string summary = experiment::renderFailureSummary(failures);
    if (!summary.empty())
        std::printf("%s", summary.c_str());

    if (!csvPath.empty()) {
        experiment::writeHierarchyCsv(csvPath, points);
        std::printf("(wrote %s)\n", csvPath.c_str());
    }
    if (!metricsPath.empty()) {
        obs::Registry::instance().writeJsonFile(metricsPath);
        std::printf("(wrote %s)\n", metricsPath.c_str());
    }
    if (gCancel.cancelled()) {
        std::printf("interrupted: resume with the same --checkpoint "
                    "to finish the remaining cells\n");
        return kExitInterrupted;
    }
    return failures.empty() ? 0 : kExitDegraded;
}

/**
 * `tsp_run chaos`: the full fault-site x failure-kind matrix (see
 * docs/robustness.md). Each cell arms one deterministic fault, runs a
 * checkpointed sweep + trace roundtrip + CSV report, and checks the
 * no-crash / clean-degrade-or-resume / bit-identical-recovery
 * trifecta.
 */
int
runChaos(int argc, char **argv)
{
    experiment::chaos::Options opt;
    opt.verbose = true;
    for (int i = 2; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            util::fatalIf(i + 1 >= argc,
                          std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--scale"))
            opt.scale = util::parseUnsigned32(next("--scale"),
                                              "--scale", 1);
        else if (!std::strcmp(argv[i], "--jobs"))
            opt.jobs = util::parseUnsigned32(next("--jobs"), "--jobs",
                                             0, 4096);
        else if (!std::strcmp(argv[i], "--app"))
            opt.app = workload::appByName(next("--app"));
        else if (!std::strcmp(argv[i], "--workdir"))
            opt.workDir = next("--workdir");
        else if (!std::strcmp(argv[i], "--verbose"))
            opt.verbose = true;
        else if (!std::strcmp(argv[i], "--quiet"))
            opt.verbose = false;
        else
            return usage();
    }
    // The svc daemon/store leg joins the scenario so the four service
    // fault sites are reachable (docs/robustness.md).
    opt.extension = svc::chaosLeg(opt.app, opt.scale);

    auto matrix = experiment::chaos::runMatrix(opt);
    std::printf("chaos: %zu/%zu cells passed the trifecta "
                "(no crash, clean degrade or resume, bit-identical "
                "recovery)\n",
                matrix.passedCount(), matrix.cells.size());
    for (const auto &cell : matrix.cells) {
        if (!cell.passed())
            std::printf("  FAILED %s\n", cell.describe().c_str());
    }
    return matrix.allPassed() ? 0 : kExitDegraded;
}

/** Comma-separated unsigned list, e.g. --window 20000,50000. */
std::vector<uint64_t>
parseList(const char *text, const char *flag)
{
    std::vector<uint64_t> out;
    std::string item;
    for (const char *p = text;; ++p) {
        if (*p == ',' || *p == '\0') {
            out.push_back(util::parseUnsigned(item, flag, 1));
            item.clear();
            if (*p == '\0')
                break;
        } else {
            item += *p;
        }
    }
    return out;
}

/**
 * BBV phase-sampling error-vs-speed study: for each application and
 * each (window, clusters) setting, compare the phase-sampled estimate
 * against the unsampled streaming run and report the execution-time
 * error, the fraction of references simulated, and the wall-clock
 * speedup (docs/performance.md, "Sampling methodology").
 */
int
runSample(int argc, char **argv)
{
    std::vector<workload::AppProfile> profiles;
    experiment::SamplingStudyOptions options;
    options.scale = workload::defaultScale();
    options.windows.clear();
    options.clusters.clear();
    std::string csvPath;
    uint32_t synthThreads = 0;
    uint64_t synthMean = 50'000;
    for (int i = 2; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            util::fatalIf(i + 1 >= argc,
                          std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--app"))
            profiles.push_back(
                workload::profile(workload::appByName(next("--app"))));
        else if (!std::strcmp(argv[i], "--threads"))
            synthThreads = util::parseUnsigned32(
                next("--threads"), "--threads", 2, sim::kMaxProcessors);
        else if (!std::strcmp(argv[i], "--mean"))
            synthMean =
                util::parseUnsigned(next("--mean"), "--mean", 1);
        else if (!std::strcmp(argv[i], "--scale"))
            options.scale = util::parseUnsigned32(next("--scale"),
                                                  "--scale", 1);
        else if (!std::strcmp(argv[i], "--length-mult"))
            options.lengthMult = util::parseUnsigned32(
                next("--length-mult"), "--length-mult", 1, 1024);
        else if (!std::strcmp(argv[i], "--window"))
            options.windows = parseList(next("--window"), "--window");
        else if (!std::strcmp(argv[i], "--clusters")) {
            options.clusters.clear();
            for (uint64_t k : parseList(next("--clusters"),
                                        "--clusters"))
                options.clusters.push_back(
                    static_cast<uint32_t>(k));
        }
        else if (!std::strcmp(argv[i], "--warmup"))
            options.warmupWindows = util::parseUnsigned32(
                next("--warmup"), "--warmup", 0, 64);
        else if (!std::strcmp(argv[i], "--csv"))
            csvPath = next("--csv");
        else if (!std::strcmp(argv[i], "--paranoid"))
            sim::setDefaultParanoidEvery(util::parseUnsigned(
                next("--paranoid"), "--paranoid"));
        else
            return usage();
    }
    if (synthThreads)
        profiles.push_back(
            experiment::syntheticScaleProfile(synthThreads, synthMean));
    if (profiles.empty())
        for (workload::AppId app : workload::allApps())
            profiles.push_back(workload::profile(app));
    if (options.windows.empty())
        options.windows = {20'000, 50'000};
    if (options.clusters.empty())
        options.clusters = {4, 8};

    experiment::SamplingStudy study =
        experiment::samplingStudy(profiles, options);

    std::printf("%-10s %5s %8s %4s %8s %7s %9s %8s\n", "app",
                "procs", "window", "k", "err%", "refs/", "plan_ms",
                "speedup");
    for (const experiment::SamplingCell &c : study.cells)
        std::printf("%-10s %5u %8llu %4u %8.3f %7.1f %9.1f %8.2f\n",
                    c.app.c_str(), c.processors,
                    static_cast<unsigned long long>(c.windowRefs),
                    c.clustersRequested, c.errorPct, c.refsRatio,
                    c.planWallMs, c.speedup);
    if (!csvPath.empty()) {
        experiment::writeSamplingCsv(csvPath, study);
        std::printf("study written to %s\n", csvPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    try {
        if (!std::strcmp(argv[1], "sweep"))
            return runSweep(argc, argv);
        if (!std::strcmp(argv[1], "hierarchy"))
            return runHierarchy(argc, argv);
        if (!std::strcmp(argv[1], "chaos"))
            return runChaos(argc, argv);
        if (!std::strcmp(argv[1], "sample"))
            return runSample(argc, argv);
        if (argc < 4)
            return usage();

        workload::AppId app = workload::appByName(argv[1]);
        auto alg = placement::algorithmFromName(argv[2]);
        if (!alg) {
            std::fprintf(stderr, "unknown algorithm: %s\n", argv[2]);
            return usage();
        }
        uint32_t procs = util::parseUnsigned32(
            argv[3], "processors", 1, sim::kMaxProcessors);

        uint32_t contexts = 0, assoc = 1, latency = 50, switchCy = 6;
        uint64_t cacheBytes = 0;
        uint32_t scale = workload::defaultScale();
        bool infinite = false, profile = false;
        std::string metricsPath;
        for (int i = 4; i < argc; ++i) {
            auto next = [&](const char *flag) -> const char * {
                util::fatalIf(i + 1 >= argc,
                              std::string(flag) + " needs a value");
                return argv[++i];
            };
            if (!std::strcmp(argv[i], "--contexts"))
                contexts = util::parseUnsigned32(next("--contexts"),
                                                 "--contexts", 1);
            else if (!std::strcmp(argv[i], "--cache"))
                cacheBytes = util::parseUnsigned(next("--cache"),
                                                 "--cache", 1);
            else if (!std::strcmp(argv[i], "--assoc"))
                assoc = util::parseUnsigned32(next("--assoc"),
                                              "--assoc", 1);
            else if (!std::strcmp(argv[i], "--latency"))
                latency = util::parseUnsigned32(next("--latency"),
                                                "--latency", 1);
            else if (!std::strcmp(argv[i], "--switch"))
                switchCy = util::parseUnsigned32(next("--switch"),
                                                 "--switch");
            else if (!std::strcmp(argv[i], "--scale"))
                scale = util::parseUnsigned32(next("--scale"),
                                              "--scale", 1);
            else if (!std::strcmp(argv[i], "--infinite"))
                infinite = true;
            else if (!std::strcmp(argv[i], "--profile"))
                profile = true;
            else if (!std::strcmp(argv[i], "--jobs"))
                util::ThreadPool::setDefaultJobs(util::parseUnsigned32(
                    next("--jobs"), "--jobs", 0, 4096));
            else if (!std::strcmp(argv[i], "--metrics-out"))
                metricsPath = next("--metrics-out");
            else if (!std::strcmp(argv[i], "--fault"))
                fault::arm(next("--fault"));
            else if (!std::strcmp(argv[i], "--paranoid"))
                sim::setDefaultParanoidEvery(util::parseUnsigned(
                    next("--paranoid"), "--paranoid"));
            else
                return usage();
        }

        if (!metricsPath.empty())
            obs::setMetricsEnabled(true);

        experiment::Lab lab(scale);
        const auto &an = lab.analysis(app);
        if (contexts == 0) {
            contexts = static_cast<uint32_t>(
                util::divCeil(an.threadCount(), procs));
        }

        sim::SimConfig cfg =
            lab.configFor(app, {procs, contexts}, infinite);
        if (cacheBytes)
            cfg.cacheBytes = cacheBytes;
        cfg.associativity = assoc;
        cfg.memoryLatency = latency;
        cfg.contextSwitchCycles = switchCy;
        cfg.profileSharing = profile;
        cfg.validate();

        auto placement = lab.placementFor(app, *alg, procs);
        auto stats = sim::simulate(cfg, lab.traces(app), placement);

        std::printf("%s | %s | %s\n", workload::appName(app).c_str(),
                    placement::algorithmName(*alg).c_str(),
                    cfg.describe().c_str());
        std::printf("placement: %s\n", placement.describe().c_str());
        std::printf("load imbalance: %s\n\n",
                    util::fmtFixed(placement.loadImbalance(
                                       an.threadLength()),
                                   3)
                        .c_str());

        util::TextTable table;
        table.setHeader({"metric", "value"});
        auto add = [&](const std::string &k, uint64_t v) {
            table.addRow({k, util::fmtThousands(
                                 static_cast<int64_t>(v))});
        };
        add("execution time (cycles)", stats.executionTime());
        add("instructions", stats.totalInstructions());
        add("data references", stats.totalMemRefs());
        add("hits", stats.totalHits());
        add("compulsory misses",
            stats.totalMissCount(sim::MissKind::Compulsory));
        add("intra-thread conflicts",
            stats.totalMissCount(sim::MissKind::IntraConflict));
        add("inter-thread conflicts",
            stats.totalMissCount(sim::MissKind::InterConflict));
        add("invalidation misses",
            stats.totalMissCount(sim::MissKind::Invalidation));
        add("upgrades", stats.totalUpgrades());
        add("invalidations sent", stats.totalInvalidationsSent());
        add("sharing compulsory", stats.sharingCompulsoryMisses);
        table.addRow({"miss rate",
                      util::fmtPercent(stats.missRate())});
        table.print();

        if (stats.profiledSharing) {
            const auto &p = stats.sharingProfile;
            std::printf("\nsharing profile: %llu shared blocks "
                        "(read-only %s, migratory %s), mean write run "
                        "%s\n",
                        static_cast<unsigned long long>(
                            p.sharedBlocks),
                        util::fmtPercent(p.readOnlyFraction(), 1)
                            .c_str(),
                        util::fmtPercent(p.migratoryFraction(), 1)
                            .c_str(),
                        util::fmtFixed(p.writeRunLength.mean(), 1)
                            .c_str());
        }
        if (!metricsPath.empty()) {
            obs::Registry::instance().writeJsonFile(metricsPath);
            std::printf("(wrote %s)\n", metricsPath.c_str());
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
