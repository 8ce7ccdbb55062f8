/**
 * @file
 * tsp-run — one-shot experiment CLI: place one suite application with
 * one algorithm on one machine configuration and print the full
 * statistics. Also hosts the fault-tolerant placement sweeps, the
 * chaos matrix and the sampling study.
 *
 *   tsp-run <app> <algorithm> <processors> [options]
 *   tsp-run sweep <app> [options]
 *   tsp-run hierarchy <app> [options]
 *   tsp-run chaos [options]
 *   tsp-run sample [options]
 *
 * shared options, parsed in one place (sweep and hierarchy take all
 * five; the single run takes all but --jobs; chaos takes --scale and
 * --jobs; sample takes --scale and --paranoid):
 *   --scale N        workload scale divisor (default TSP_SCALE or 8;
 *                    chaos: 64)
 *   --jobs N         threads the sweep's cells fan out over, 1-1024
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
 * options (single run):
 *   --contexts N     hardware contexts/processor (default: fit all)
 *   --cache BYTES    cache size (default: the app's paper cache,
 *                    scaled)
 *   --assoc N        associativity (default 1, direct-mapped)
 *   --latency N      memory latency cycles (default 50)
 *   --switch N       context switch cycles (default 6)
 *   --infinite       use the 8 MB "infinite" cache
 *   --profile        collect the write-run sharing profile
 *
 * options (sweep and hierarchy — every figure algorithm at every
 * standard machine point, normalized to RANDOM: sweep on the paper's
 * flat-1994 machine, hierarchy once per memory-system variant of
 * docs/memory_system.md):
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
 *   --trace-out PATH   write a per-cell Chrome trace-event timeline
 *                      (JSONL; open in chrome://tracing or Perfetto)
 *   --csv PATH         write the study as CSV to PATH
 *
 * options (chaos — run the fault-injection matrix, see
 * docs/robustness.md):
 *   --app NAME   --workdir PATH   --verbose   --quiet
 *
 * options (sample — BBV phase-sampling error-vs-speed study,
 * docs/performance.md "Sampling methodology"):
 *   --app NAME       add a suite application (repeatable; default:
 *                    all of them)
 *   --threads N      add a synthetic scalable workload with N
 *                    threads on N processors (up to 1024)
 *   --mean N         synthetic workload mean thread length
 *   --length-mult N  thread-length multiplier (sampling pays off on
 *                    long traces; 8-32x shows the >=20x regime)
 *   --window LIST    comma-separated window sizes, in per-thread
 *                    references (default 20000,50000)
 *   --clusters LIST  comma-separated phase counts (default 4,8)
 *   --warmup N       warmup windows per representative (default 1)
 *   --csv PATH       write the study as CSV to PATH
 *
 * Signals: a sweep or hierarchy run receiving SIGINT/SIGTERM cancels
 * cooperatively — in-flight cells finish and are journaled, the
 * checkpoint, metrics export and trace timeline are flushed, and the
 * process exits with code 4 (resume by re-running with the same
 * --checkpoint).
 *
 * Exit codes: 0 success; 1 error; 2 usage; 3 degraded (failed cells /
 * chaos matrix failures); 4 interrupted by signal.
 *
 * All numeric flags are parsed strictly: a missing, non-numeric,
 * negative or out-of-range value is a usage error (exit 2) with a
 * message naming the flag.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
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
#include "util/parallel_for.h"
#include "util/parse.h"
#include "util/table.h"
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
        "usage: tsp-run <app> <algorithm> <processors> [options]\n"
        "       tsp-run sweep|hierarchy <app> [--batch N]"
        " [--checkpoint PATH]\n"
        "               [--deadline MS] [--trace-out PATH]"
        " [--csv PATH]\n"
        "       tsp-run chaos [--app NAME] [--workdir PATH]"
        " [--verbose|--quiet]\n"
        "       tsp-run sample [--app NAME ...] [--threads N]"
        " [--mean N]\n"
        "               [--length-mult N] [--window LIST]"
        " [--clusters LIST]\n"
        "               [--warmup N] [--csv PATH]\n"
        "shared: --scale N  --jobs N  --metrics-out PATH"
        "  --fault site:nth[+]:kind  --paranoid N\n"
        "        (single run: all but --jobs; chaos: --scale, --jobs;"
        " sample: --scale,\n"
        "        --paranoid; --jobs N is 1-1024)\n"
        "single run: --contexts N  --cache BYTES  --assoc N"
        "  --latency N  --switch N\n"
        "            --infinite  --profile\n"
        "--checkpoint PATH is a result store to resume from and"
        " journal to (the same\n"
        "file as tsp-serve --store); --batch N sets the lanes per"
        " lockstep simulation\n"
        "batch (default $TSP_BATCH, else 1 = off)\n"
        "algorithms: ");
    for (placement::Algorithm alg : placement::allAlgorithms())
        std::fprintf(stderr, "%s ",
                     placement::algorithmName(alg).c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/** A bad flag value: main() prints the error and exits 2. */
struct UsageError : std::runtime_error
{
    explicit UsageError(const util::FatalError &error)
        : std::runtime_error(error)
    {
    }
};

/** Walks a command's flags, handing out their values. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
        : argc_(argc), argv_(argv), next_(first)
    {
    }

    /** Step to the next flag; false when none is left. */
    bool
    next()
    {
        if (next_ >= argc_)
            return false;
        flag_ = argv_[next_++];
        return true;
    }

    /** Whether the current flag is @p name. */
    bool is(const char *name) const { return !std::strcmp(flag_, name); }

    /** The current flag's value; a usage error naming the flag when
     *  missing. */
    const char *
    value()
    {
        if (next_ >= argc_) {
            throw UsageError(
                util::FatalError(std::string(flag_) + " needs a value"));
        }
        return argv_[next_++];
    }

    /** The current flag's value as an integer in [@p min, @p max]. */
    uint64_t
    number(uint64_t min = 0, uint64_t max = UINT64_MAX)
    {
        return parsed([&](const char *text) {
            return util::parseUnsigned(text, flag_, min, max);
        });
    }

    uint32_t
    number32(uint32_t min = 0, uint32_t max = UINT32_MAX)
    {
        return static_cast<uint32_t>(number(min, max));
    }

    /** The current flag's value as a comma-separated integer list. */
    std::vector<uint64_t>
    list(uint64_t min = 0, uint64_t max = UINT64_MAX)
    {
        return parsed([&](const char *text) {
            return util::parseList(text, flag_, min, max);
        });
    }

  private:
    /** @p parse applied to the current flag's value; a value it
     *  rejects is a usage error. */
    template <typename Parse>
    std::invoke_result_t<Parse &, const char *>
    parsed(Parse parse)
    {
        const char *text = value();
        try {
            return parse(text);
        } catch (const util::FatalError &e) {
            throw UsageError(e);
        }
    }

    int argc_;
    char **argv_;
    int next_;
    const char *flag_ = "";
};

/**
 * The flags the commands share. A command names the ones it accepts;
 * the rest stay usage errors, so every accepted flag takes effect.
 * --fault and --paranoid apply as they are parsed.
 */
struct SharedFlags
{
    enum : unsigned {
        kScale = 1,
        kJobs = 2,
        kMetrics = 4,
        kFault = 8,
        kParanoid = 16,
        kAll = 31,
    };

    unsigned accepted = kAll;
    uint32_t scale = workload::defaultScale();
    unsigned jobs = util::defaultJobs();
    std::string metricsPath = {};

    /** Consume the current flag if it is an accepted shared flag. */
    bool
    parse(Args &args)
    {
        if ((accepted & kScale) && args.is("--scale")) {
            scale = args.number32(1);
        } else if ((accepted & kJobs) && args.is("--jobs")) {
            jobs = args.number32(1, 1024);
        } else if ((accepted & kMetrics) && args.is("--metrics-out")) {
            metricsPath = args.value();
            obs::setMetricsEnabled(true);
        } else if ((accepted & kFault) && args.is("--fault")) {
            fault::arm(args.value());
        } else if ((accepted & kParanoid) && args.is("--paranoid")) {
            sim::setDefaultParanoidEvery(args.number());
        } else {
            return false;
        }
        return true;
    }

    /** Export the metrics registry if --metrics-out asked for it. */
    void
    writeMetrics() const
    {
        if (metricsPath.empty())
            return;
        obs::Registry::instance().writeJsonFile(metricsPath);
        std::printf("(wrote %s)\n", metricsPath.c_str());
    }
};

/**
 * `tsp-run sweep|hierarchy <app>`: the fault-tolerant placement sweep
 * — execTimeStudy for `sweep`, hierarchyStudy (one table per memory
 * system, with its L2 hit rate and interconnect queueing) for
 * `hierarchy` — in degraded mode with an optional checkpoint journal,
 * per-cell watchdog and cooperative cancel. Failed cells render as
 * FAILED; the sweep statistics (cells replayed from the checkpoint vs
 * simulated vs failed) and the failure summary print after the tables.
 */
int
runSweep(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const bool hierarchy = !std::strcmp(argv[1], "hierarchy");
    const workload::AppId app = workload::appByName(argv[2]);

    SharedFlags shared;
    unsigned batch = experiment::defaultBatchLanes();
    std::string checkpointPath, tracePath, csvPath;
    uint64_t deadlineMs = 0;
    for (Args args(argc, argv, 3); args.next();) {
        if (shared.parse(args))
            continue;
        if (args.is("--batch"))
            batch = args.number32(1, 4096);
        else if (args.is("--checkpoint"))
            checkpointPath = args.value();
        else if (args.is("--deadline"))
            deadlineMs = args.number(1);
        else if (args.is("--trace-out"))
            tracePath = args.value();
        else if (args.is("--csv"))
            csvPath = args.value();
        else
            return usage();
    }

    installSignalHandlers();
    std::optional<obs::TraceSink> trace;
    if (!tracePath.empty()) {
        trace.emplace(tracePath, std::string("tsp-run ") + argv[1]);
        obs::TraceSink::installGlobal(&*trace);
    }

    experiment::Lab lab(shared.scale);
    std::optional<experiment::Checkpoint> checkpoint;
    if (!checkpointPath.empty()) {
        checkpoint.emplace(checkpointPath, shared.scale);
        if (checkpoint->size())
            std::printf("checkpoint: %s holds %zu completed cells\n",
                        checkpointPath.c_str(), checkpoint->size());
    }

    std::vector<experiment::JobFailure> failures;
    experiment::SweepStats stats;
    double cellMsMax = 0.0;
    const auto study =
        hierarchy ? experiment::hierarchyStudy : experiment::execTimeStudy;
    const auto rows = study(
        lab, app, placement::figureAlgorithms(),
        {.jobs = shared.jobs,
         .batch = batch,
         .checkpoint = checkpoint ? &*checkpoint : nullptr,
         .failures = &failures,
         .statsOut = &stats,
         .jobDeadline = std::chrono::milliseconds(deadlineMs),
         .cancel = &gCancel,
         .onCell = [&](size_t, const auto &, double wallMs) {
             cellMsMax = std::max(cellMsMax, wallMs);
         }});
    std::printf("%s", experiment::renderSweepTables(
                          workload::appName(app) +
                              " execution time normalized to RANDOM",
                          rows)
                          .c_str());

    std::printf("\nsweep: %zu cells (%zu unique), %zu replayed from "
                "checkpoint, %zu simulated, %zu failed\n",
                stats.total, stats.unique, stats.fromCheckpoint,
                stats.simulated, stats.failed);
    if (stats.cancelled)
        std::printf("cancelled: %zu cells skipped (signal %d)\n",
                    stats.cancelled, static_cast<int>(gSignal));
    if (stats.simulated) {
        std::printf("cell wall time: %s ms total (max %s ms per "
                    "cell)\n",
                    util::fmtFixed(stats.simulatedMs, 1).c_str(),
                    util::fmtFixed(cellMsMax, 1).c_str());
    }
    if (stats.watchdogFlagged)
        std::printf("watchdog: %zu cells exceeded the %llu ms "
                    "deadline\n",
                    stats.watchdogFlagged,
                    static_cast<unsigned long long>(deadlineMs));
    std::printf("%s", experiment::renderFailureSummary(failures).c_str());

    if (!csvPath.empty()) {
        if (hierarchy)
            experiment::writeHierarchyCsv(csvPath, rows);
        else
            experiment::writeExecTimeCsv(csvPath, rows);
        std::printf("(wrote %s)\n", csvPath.c_str());
    }
    if (trace) {
        obs::TraceSink::installGlobal(nullptr);
        trace->close();
        std::printf("(wrote %s: %llu trace events)\n",
                    tracePath.c_str(),
                    static_cast<unsigned long long>(trace->events()));
    }
    shared.writeMetrics();
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
 * `tsp-run chaos`: the full fault-site x failure-kind matrix (see
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
    SharedFlags shared{.accepted = SharedFlags::kScale | SharedFlags::kJobs,
                       .scale = opt.scale,
                       .jobs = opt.jobs};
    for (Args args(argc, argv, 2); args.next();) {
        if (shared.parse(args))
            continue;
        if (args.is("--app"))
            opt.app = workload::appByName(args.value());
        else if (args.is("--workdir"))
            opt.workDir = args.value();
        else if (args.is("--verbose"))
            opt.verbose = true;
        else if (args.is("--quiet"))
            opt.verbose = false;
        else
            return usage();
    }
    opt.scale = shared.scale;
    opt.jobs = shared.jobs;
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
    SharedFlags shared{.accepted =
                           SharedFlags::kScale | SharedFlags::kParanoid};
    std::string csvPath;
    uint32_t synthThreads = 0;
    uint64_t synthMean = 50'000;
    for (Args args(argc, argv, 2); args.next();) {
        if (shared.parse(args))
            continue;
        if (args.is("--app")) {
            profiles.push_back(
                workload::profile(workload::appByName(args.value())));
        } else if (args.is("--threads")) {
            synthThreads = args.number32(2, sim::kMaxProcessors);
        } else if (args.is("--mean")) {
            synthMean = args.number(1);
        } else if (args.is("--length-mult")) {
            options.lengthMult = args.number32(1, 1024);
        } else if (args.is("--window")) {
            options.windows = args.list(1);
        } else if (args.is("--clusters")) {
            const auto ks = args.list(1, UINT32_MAX);
            options.clusters.assign(ks.begin(), ks.end());
        } else if (args.is("--warmup")) {
            options.warmupWindows = args.number32(0, 64);
        } else if (args.is("--csv")) {
            csvPath = args.value();
        } else {
            return usage();
        }
    }
    options.scale = shared.scale;
    if (synthThreads)
        profiles.push_back(
            experiment::syntheticScaleProfile(synthThreads, synthMean));
    if (profiles.empty())
        for (workload::AppId app : workload::allApps())
            profiles.push_back(workload::profile(app));

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

/**
 * `tsp-run <app> <algorithm> <processors>`: one placement, one
 * simulation, the full statistics.
 */
int
runOne(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    workload::AppId app = workload::appByName(argv[1]);
    auto alg = placement::algorithmFromName(argv[2]);
    if (!alg) {
        std::fprintf(stderr, "unknown algorithm: %s\n", argv[2]);
        return usage();
    }
    uint32_t procs = util::parseUnsigned32(argv[3], "processors", 1,
                                           sim::kMaxProcessors);

    // The single run simulates one cell, so --jobs has nothing to fan.
    SharedFlags shared{.accepted = SharedFlags::kAll & ~SharedFlags::kJobs};
    uint32_t contexts = 0, assoc = 1, latency = 50, switchCy = 6;
    uint64_t cacheBytes = 0;
    bool infinite = false, profile = false;
    for (Args args(argc, argv, 4); args.next();) {
        if (shared.parse(args))
            continue;
        if (args.is("--contexts"))
            contexts = args.number32(1);
        else if (args.is("--cache"))
            cacheBytes = args.number(1);
        else if (args.is("--assoc"))
            assoc = args.number32(1);
        else if (args.is("--latency"))
            latency = args.number32(1);
        else if (args.is("--switch"))
            switchCy = args.number32();
        else if (args.is("--infinite"))
            infinite = true;
        else if (args.is("--profile"))
            profile = true;
        else
            return usage();
    }
    experiment::Lab lab(shared.scale);
    const auto &an = lab.analysis(app);
    if (contexts == 0) {
        contexts = static_cast<uint32_t>(
            util::divCeil(an.threadCount(), procs));
    }

    sim::SimConfig cfg = lab.configFor(app, {procs, contexts}, infinite);
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
                util::fmtFixed(placement.loadImbalance(an.threadLength()),
                               3)
                    .c_str());

    util::TextTable table;
    table.setHeader({"metric", "value"});
    auto add = [&](const std::string &k, uint64_t v) {
        table.addRow({k, util::fmtThousands(static_cast<int64_t>(v))});
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
    table.addRow({"miss rate", util::fmtPercent(stats.missRate())});
    table.print();

    if (stats.profiledSharing) {
        const auto &p = stats.sharingProfile;
        std::printf("\nsharing profile: %llu shared blocks "
                    "(read-only %s, migratory %s), mean write run "
                    "%s\n",
                    static_cast<unsigned long long>(p.sharedBlocks),
                    util::fmtPercent(p.readOnlyFraction(), 1).c_str(),
                    util::fmtPercent(p.migratoryFraction(), 1).c_str(),
                    util::fmtFixed(p.writeRunLength.mean(), 1).c_str());
    }
    shared.writeMetrics();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    try {
        if (!std::strcmp(argv[1], "sweep") ||
            !std::strcmp(argv[1], "hierarchy"))
            return runSweep(argc, argv);
        if (!std::strcmp(argv[1], "chaos"))
            return runChaos(argc, argv);
        if (!std::strcmp(argv[1], "sample"))
            return runSample(argc, argv);
        return runOne(argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
