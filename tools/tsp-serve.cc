/**
 * @file
 * tsp-serve: host the resident experiment daemon (svc::Daemon) and
 * drive it with the built-in closed-loop load generator — the
 * overload-survival harness behind the service CI smoke and a
 * capacity-tuning tool for humans (docs/service.md).
 *
 *   tsp_serve [options]
 *
 * options:
 *   --scale N            workload scale divisor (default 8)
 *   --app NAME           palette application (default Water)
 *   --workers N          daemon worker threads (default 2, max 1024)
 *   --capacity N         bounded queue capacity (default 64)
 *   --deadline MS        default per-request deadline from admission
 *                        (0 = none)
 *   --store PATH         crash-safe result store (empty = memory
 *                        only); the same file as `tsp-run sweep
 *                        --checkpoint PATH`, whose cells it serves
 *   --clients N          closed-loop clients (default 4, max 1024)
 *   --requests N         requests per client (default 16)
 *   --jobs-per-request N cells per request (default 1)
 *   --retry-budget N     shed retries per request (default 2)
 *   --retry-backoff MS   initial shed-retry backoff (default 1)
 *   --seed N             load-generator seed (default 1)
 *   --metrics-out PATH   write the metrics snapshot on exit
 *
 * network modes:
 *   --listen PORT        serve the wire protocol on --host:PORT
 *                        (0 = ephemeral; the bound port is printed)
 *                        instead of running the load generator
 *   --connect PORT       the load generator submits over the wire to
 *                        --host:PORT instead of in-process
 *   --host ADDR          bind/connect address (default 127.0.0.1)
 *   --max-connections N  listener admission limit (default 64)
 *
 * SIGINT/SIGTERM begin a graceful drain: clients stop issuing, the
 * daemon stops admitting, queued and in-flight requests finish, the
 * report still prints, and the exit code is 0 — a clean drain is
 * success, not an error (kill -9 is the crash the result store is
 * built to survive).
 *
 * Exit codes: 0 success (including a signal-initiated clean drain);
 * 1 error; 2 usage (also any bad flag value, named).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "flags.h"
#include "obs/metrics.h"
#include "svc/daemon.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "util/cancel.h"
#include "workload/suite.h"

namespace {

using namespace tsp;

/** Tripped by SIGINT/SIGTERM; polled by the load-gen clients. */
util::CancelToken gStop;
volatile std::sig_atomic_t gSignal = 0;

extern "C" void
onSignal(int sig)
{
    // Async-signal-safe only: latch and return. The clients notice,
    // stop issuing, and the main thread drains the daemon cleanly.
    gSignal = sig;
    gStop.requestCancel();
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tsp_serve [options]\n"
        "%s"
        "  --workers N    --clients N (each 1-%u)\n"
        "  --capacity N   --requests N      --jobs-per-request N\n"
        "  --retry-budget N  --retry-backoff MS  --seed N\n"
        "  --listen PORT  --connect PORT  --max-connections N\n"
        "  --store PATH   result store to serve from and append to\n"
        "                 (the same file as tsp_run --checkpoint)\n"
        "see docs/service.md for semantics and capacity tuning\n",
        tools::helpLines(tools::kScale, tools::kApp, tools::kDeadline,
                         tools::kHost, tools::kMetricsOut)
            .c_str(),
        util::kMaxThreads);
    return tools::kExitUsage;
}

int
run(int argc, char **argv)
{
    svc::Daemon::Config config;
    svc::LoadGenOptions loadgen;
    workload::AppId app = workload::AppId::Water;
    std::string metricsOut;
    std::string host = "127.0.0.1";
    int listenPort = -1;  // -1 = load-generator mode
    size_t maxConnections = 64;

    for (tools::Args args(argc, argv, 1); args.next();) {
        if (args.is(tools::kScale))
            config.scale = args.get(tools::kScale);
        else if (args.is(tools::kApp))
            app = args.get(tools::kApp);
        else if (args.is("--workers"))
            config.workers = args.parsed(tools::parseThreads);
        else if (args.is("--capacity"))
            config.queueCapacity = args.number32(1);
        else if (args.is(tools::kDeadline))
            config.defaultDeadline = args.get(tools::kDeadline);
        else if (args.is("--store"))
            config.storePath = args.value();
        else if (args.is("--clients"))
            loadgen.clients = args.parsed(tools::parseThreads);
        else if (args.is("--requests"))
            loadgen.requestsPerClient = args.number32(1);
        else if (args.is("--jobs-per-request"))
            loadgen.jobsPerRequest = args.number32(1);
        else if (args.is("--retry-budget"))
            loadgen.retryBudget = args.number32();
        else if (args.is("--retry-backoff"))
            loadgen.retryBackoff =
                std::chrono::milliseconds(args.number32(1));
        else if (args.is("--seed"))
            loadgen.seed = args.number32();
        else if (args.is(tools::kMetricsOut))
            metricsOut = args.get(tools::kMetricsOut);
        else if (args.is("--listen"))
            listenPort = static_cast<int>(args.number32(0, 65535));
        else if (args.is("--connect"))
            loadgen.serverPort =
                static_cast<uint16_t>(args.number32(1, 65535));
        else if (args.is(tools::kHost))
            host = args.get(tools::kHost);
        else if (args.is("--max-connections"))
            maxConnections = args.number32(1);
        else
            return usage();
    }
    if (!metricsOut.empty())
        obs::setMetricsEnabled(true);

    svc::Daemon daemon(config);
    loadgen.palette = svc::defaultPalette(daemon.lab(), app);
    loadgen.stop = &gStop;
    loadgen.serverHost = host;

    std::printf("tsp-serve: %s scale %u, %u workers, capacity %zu, "
                "store %s\n",
                workload::appName(app).c_str(), config.scale,
                config.workers, config.queueCapacity,
                config.storePath.empty() ? "(none)"
                                         : config.storePath.c_str());
    std::fflush(stdout);

    if (listenPort >= 0) {
        // Network serve mode: host the wire protocol until a signal
        // begins the drain. tsp-client (or a socket-mode loadgen) is
        // the traffic source.
        svc::Server::Config serverConfig;
        serverConfig.host = host;
        serverConfig.port = static_cast<uint16_t>(listenPort);
        serverConfig.maxConnections = maxConnections;
        svc::Server server(daemon, serverConfig);
        std::printf("listening on %s:%u\n", host.c_str(),
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);

        while (!gStop.cancelled())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));

        // Drain order: refuse new network work, refuse new
        // admissions, finish what was admitted, then flush the
        // earned answers out of the sockets.
        server.beginDrain();
        daemon.beginDrain();
        daemon.drain();
        server.stop();

        svc::Server::Counters net = server.counters();
        std::printf(
            "server: %llu accepted, %llu rejected, %llu malformed, "
            "%llu reaped, %llu frames in, %llu frames out\n",
            static_cast<unsigned long long>(net.accepted),
            static_cast<unsigned long long>(net.rejected),
            static_cast<unsigned long long>(net.malformed),
            static_cast<unsigned long long>(net.reaped),
            static_cast<unsigned long long>(net.framesIn),
            static_cast<unsigned long long>(net.framesOut));
    } else {
        svc::LoadGenReport report = svc::runLoadGen(daemon, loadgen);

        // Graceful drain: stop admitting, finish queued and
        // in-flight requests, join the workers. Runs on the signal
        // path too.
        daemon.beginDrain();
        daemon.drain();

        std::printf("%s\n", report.summary().c_str());
    }
    svc::Daemon::Counters counters = daemon.counters();
    std::printf("daemon: %llu admitted, %llu shed, %llu expired, "
                "%llu completed\n",
                static_cast<unsigned long long>(counters.admitted),
                static_cast<unsigned long long>(counters.shed),
                static_cast<unsigned long long>(counters.expired),
                static_cast<unsigned long long>(counters.completed));
    if (daemon.store()) {
        std::printf("store: %zu results resident in %s\n",
                    daemon.store()->size(),
                    daemon.store()->path().c_str());
    }
    if (gSignal != 0) {
        std::printf("drained cleanly after signal %d\n",
                    static_cast<int>(gSignal));
    } else {
        std::printf("drained cleanly\n");
    }

    if (!metricsOut.empty())
        obs::Registry::instance().writeJsonFile(metricsOut);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    try {
        return run(argc, argv);
    } catch (const tools::UsageError &e) {
        std::fprintf(stderr, "tsp-serve: %s\n", e.what());
        return tools::kExitUsage;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tsp-serve: %s\n", e.what());
        return 1;
    }
}
