/**
 * @file
 * tsp-run — the project's one command-line tool. Its commands cover
 * the paper's trace-driven pipeline (generate per-thread traces,
 * analyze their sharing, place the threads, simulate, normalize to
 * RANDOM) and the service around it:
 *
 *   tsp-run <app> <algorithm> <processors>   one placement, one
 *                                            simulation, its statistics
 *   tsp-run sweep|hierarchy <app>   the fault-tolerant placement sweep
 *   tsp-run chaos                   the fault-injection matrix
 *   tsp-run sample                  the BBV phase-sampling study
 *   tsp-run trace gen|info|analyze|dump   TSPT trace files (trace.cc)
 *   tsp-run serve                   the resident daemon (serve.cc)
 *   tsp-run client                  one study over the wire (client.cc)
 *
 * `tsp-run` alone, or with a flag first (--help), prints the usage,
 * the one list of every command's flags. No suite application is
 * named like a command, so the single run's <app> never shadows one.
 * Every argument parses through tools/flags.h: a missing, malformed
 * or out-of-range value, a bad positional argument and a flag the
 * command does not take are each a usage error naming it.
 *
 * Signals: one SIGINT/SIGTERM handler trips one util::CancelToken
 * (cancelOnSignal). A sweep's token, made with its --deadline, skips
 * the cells not yet started: in-flight cells finish and are
 * journaled, the checkpoint, metrics and trace timeline are flushed,
 * and the run exits 4 (re-running with the same --checkpoint
 * resumes). serve's token begins a graceful drain, which exits 0.
 *
 * Exit codes:
 *   0  success (serve: also a drain after a signal; client: answered,
 *      also through --local-fallback)
 *   1  error (client: the transport stayed dead)
 *   2  usage: a bad flag or argument, named
 *   3  degraded or refused: failed cells, chaos matrix failures, or a
 *      request a healthy server rejected (client)
 *   4  cancelled by a signal or --deadline (sweep, hierarchy)
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
#include "flags.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/machine.h"
#include "svc/chaos_leg.h"
#include "tsp-run.h"
#include "util/bits.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/format.h"
#include "util/parallel_for.h"
#include "util/parse.h"
#include "util/table.h"
#include "workload/suite.h"

namespace tsp::tools {

namespace {

std::optional<util::CancelToken> gCancel;
volatile std::sig_atomic_t gSignal = 0;

extern "C" void
onSignal(int sig)
{
    // Only async-signal-safe operations: set two atomics and return.
    // A sweep finishes its in-flight cells and flushes; serve drains.
    gSignal = sig;
    gCancel->requestCancel(
        "interrupted by a signal before this cell started");
}

} // namespace

util::CancelToken &
cancelOnSignal(std::chrono::milliseconds deadline)
{
    using Clock = util::CancelToken::Clock;
    gCancel.emplace(deadline.count() ? Clock::now() + deadline
                                     : Clock::time_point::max(),
                    Clock::now,
                    "the --deadline passed before this cell started");
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    return *gCancel;
}

int
caughtSignal()
{
    return gSignal;
}

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tsp-run <app> <algorithm> <processors> [options]\n"
        "         --contexts N  --cache BYTES  --assoc N  --latency N"
        "  --switch N\n"
        "         --infinite  --profile\n"
        "       tsp-run sweep|hierarchy <app> [options]\n"
        "         every figure algorithm at every standard machine"
        " point, normalized\n"
        "         to RANDOM (hierarchy: once per memory system)\n"
        "         --batch N          lanes per lockstep simulation"
        " (default $TSP_BATCH,\n"
        "                            else 1 = off)\n"
        "         --checkpoint PATH  result store to resume from and"
        " journal to (also\n"
        "                            serve --store)\n"
        "         --deadline MS      cancel the cells not started"
        " within MS ms (0 = none)\n"
        "         --trace-out PATH   per-cell Chrome trace-event"
        " timeline (JSONL)\n"
        "         --csv PATH         the study as CSV\n"
        "       tsp-run chaos [--workdir PATH] [--verbose|--quiet]\n"
        "       tsp-run sample [--app NAME ...] [--threads N]"
        " [--mean N]\n"
        "               [--length-mult N] [--window LIST]"
        " [--clusters LIST] [--warmup N]\n"
        "               [--csv PATH]\n"
        "       tsp-run trace gen <app|all> <file.tspt> [scale]\n"
        "       tsp-run trace info|analyze <file.tspt>\n"
        "       tsp-run trace dump <file.tspt> <thread> [count]\n"
        "       tsp-run serve [options]   the daemon under its"
        " closed-loop load generator\n"
        "         --workers N (2)  --capacity N (64)  --deadline MS"
        "  --store PATH\n"
        "         --clients N (4)  --requests N (16)"
        "  --jobs-per-request N (1)\n"
        "         --shed-retries N (2)  --shed-backoff MS (1)"
        "  --seed N (1)\n"
        "         --listen PORT      serve the wire protocol instead"
        " (0 = any port)\n"
        "         --connect PORT     the load generator submits over"
        " the wire\n"
        "         --host ADDR (127.0.0.1)  --max-connections N (64)\n"
        "       tsp-run client --port PORT [options]   one study to a"
        " serve --listen\n"
        "         --host ADDR  --alg NAME (repeatable)  --deadline MS"
        "  --priority N\n"
        "         --reconnects N (3)  --reconnect-backoff MS (10)"
        "  --timeout MS (10000)\n"
        "         --local-fallback\n"
        "shared: --scale N         workload scale divisor, a power of"
        " two (all but trace)\n"
        "        --app NAME        chaos, sample, serve, client\n"
        "        --metrics-out PATH  single run, sweep, hierarchy,"
        " serve\n"
        "        --jobs N          1-%u threads: sweep, hierarchy,"
        " chaos\n"
        "        --fault site:nth[+]:kind  single run, sweep,"
        " hierarchy\n"
        "        --paranoid N      single run, sweep, hierarchy,"
        " sample\n"
        "exit: 0 ok, 1 error, 2 usage, 3 degraded or refused,"
        " 4 cancelled\n"
        "apps:",
        util::kMaxThreads);
    for (workload::AppId app : workload::allApps())
        std::fprintf(stderr, " %s", workload::appName(app).c_str());
    std::fprintf(stderr, "\nalgorithms:");
    for (placement::Algorithm alg : placement::allAlgorithms())
        std::fprintf(stderr, " %s",
                     placement::algorithmName(alg).c_str());
    std::fprintf(stderr, "\n");
    return kExitUsage;
}

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
        if ((accepted & kScale) && args.is(tools::kScale)) {
            scale = args.get(tools::kScale);
        } else if ((accepted & kJobs) && args.is("--jobs")) {
            jobs = args.parsed(parseThreads);
        } else if ((accepted & kMetrics) && args.is(kMetricsOut)) {
            metricsPath = args.get(kMetricsOut);
            obs::setMetricsEnabled(true);
        } else if ((accepted & kFault) && args.is("--fault")) {
            args.parsed([](const std::string &spec, const std::string &) {
                fault::arm(spec);
            });
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
 * `hierarchy` — in degraded mode with an optional checkpoint journal
 * and cooperative cancel (a signal or the deadline). Failed cells
 * render as FAILED and skipped ones as CANCELLED; the sweep statistics
 * (cells replayed from the checkpoint vs simulated vs failed vs
 * cancelled) and the failure summary print after the tables.
 */
int
runSweep(int argc, char **argv)
{
    const bool hierarchy = !std::strcmp(argv[1], "hierarchy");
    Args args(argc, argv, 2);
    const workload::AppId app = args.positional(parseApp, "<app>");

    SharedFlags shared;
    unsigned batch = experiment::defaultBatchLanes();
    std::string checkpointPath, tracePath, csvPath;
    std::chrono::milliseconds deadline{0};
    while (args.next()) {
        if (shared.parse(args))
            continue;
        if (args.is("--batch"))
            batch = args.number32(1, 4096);
        else if (args.is("--checkpoint"))
            checkpointPath = args.value();
        else if (args.is(kDeadline))
            deadline = args.get(kDeadline);
        else if (args.is("--trace-out"))
            tracePath = args.value();
        else if (args.is("--csv"))
            csvPath = args.value();
        else
            throw args.unknown();
    }

    // The sweep starts here: its deadline counts from now.
    const util::CancelToken &cancel = cancelOnSignal(deadline);
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
         .cancel = &cancel,
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
        std::printf("cancelled: %zu cells skipped (%s)\n",
                    stats.cancelled, cancel.reason());
    if (stats.simulated) {
        std::printf("cell wall time: %s ms total (max %s ms per "
                    "cell)\n",
                    util::fmtFixed(stats.simulatedMs, 1).c_str(),
                    util::fmtFixed(cellMsMax, 1).c_str());
    }
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
    if (stats.cancelled || caughtSignal()) {
        // Everything above already flushed: the checkpoint journals
        // each cell on completion, and the trace/metrics files were
        // just closed. Resuming re-runs only the skipped cells.
        std::printf("interrupted: resume with the same --checkpoint "
                    "to finish the remaining cells\n");
        return kExitCancelled;
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
        if (args.is(kApp))
            opt.app = args.get(kApp);
        else if (args.is("--workdir"))
            opt.workDir = args.value();
        else if (args.is("--verbose"))
            opt.verbose = true;
        else if (args.is("--quiet"))
            opt.verbose = false;
        else
            throw args.unknown();
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
        if (args.is(kApp)) {
            profiles.push_back(workload::profile(args.get(kApp)));
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
            throw args.unknown();
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
    Args args(argc, argv, 1);
    const workload::AppId app = args.positional(parseApp, "<app>");
    const placement::Algorithm alg =
        args.positional(parseAlgorithm, "<algorithm>");
    const uint32_t procs = args.positional(
        [](const std::string &text, const std::string &what) {
            return util::parseUnsigned32(text, what, 1,
                                         sim::kMaxProcessors);
        },
        "<processors>");

    // The single run simulates one cell, so --jobs has nothing to fan.
    SharedFlags shared{.accepted = SharedFlags::kAll & ~SharedFlags::kJobs};
    uint32_t contexts = 0, assoc = 1, latency = 50, switchCy = 6;
    uint64_t cacheBytes = 0;
    bool infinite = false, profile = false;
    while (args.next()) {
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
            throw args.unknown();
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

    auto placement = lab.placementFor(app, alg, procs);
    auto stats = sim::simulate(cfg, lab.traces(app), placement);

    std::printf("%s | %s | %s\n", workload::appName(app).c_str(),
                placement::algorithmName(alg).c_str(),
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

} // namespace tsp::tools

int
main(int argc, char **argv)
{
    using namespace tsp::tools;
    // No command or app starts with '-': `tsp-run --help` gets usage.
    if (argc < 2 || argv[1][0] == '-')
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "sweep" || command == "hierarchy")
            return runSweep(argc, argv);
        if (command == "chaos")
            return runChaos(argc, argv);
        if (command == "sample")
            return runSample(argc, argv);
        if (command == "trace")
            return runTrace(argc, argv);
        if (command == "serve")
            return runServe(argc, argv);
        if (command == "client")
            return runClient(argc, argv);
        return runOne(argc, argv);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitUsage;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitError;
    }
}
