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
 *   --workers N          daemon worker threads (default 2)
 *   --capacity N         bounded queue capacity (default 64)
 *   --deadline MS        default per-request deadline (0 = none)
 *   --store PATH         crash-safe result store (empty = memory
 *                        only); the same file as `tsp-run sweep
 *                        --checkpoint PATH`, whose cells it serves
 *   --clients N          closed-loop clients (default 4)
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
 * 1 error; 2 usage.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <thread>

#include "obs/metrics.h"
#include "svc/daemon.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/parse.h"
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
        "  --scale N      --app NAME        --workers N\n"
        "  --capacity N   --deadline MS     --store PATH\n"
        "  --clients N    --requests N      --jobs-per-request N\n"
        "  --retry-budget N  --retry-backoff MS  --seed N\n"
        "  --metrics-out PATH\n"
        "  --listen PORT  --connect PORT  --host ADDR\n"
        "  --max-connections N\n"
        "  --store PATH   result store to serve from and append to\n"
        "                 (the same file as tsp_run --checkpoint)\n"
        "see docs/service.md for semantics and capacity tuning\n");
    return 2;
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

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            util::fatalIf(i + 1 >= argc,
                          std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--scale"))
            config.scale = util::parseUnsigned32(next("--scale"),
                                                 "--scale", 1);
        else if (!std::strcmp(argv[i], "--app"))
            app = workload::appByName(next("--app"));
        else if (!std::strcmp(argv[i], "--workers"))
            config.workers = util::parseUnsigned32(
                next("--workers"), "--workers", 1, 4096);
        else if (!std::strcmp(argv[i], "--capacity"))
            config.queueCapacity = util::parseUnsigned32(
                next("--capacity"), "--capacity", 1);
        else if (!std::strcmp(argv[i], "--deadline"))
            config.defaultDeadline =
                std::chrono::milliseconds(util::parseUnsigned32(
                    next("--deadline"), "--deadline"));
        else if (!std::strcmp(argv[i], "--store"))
            config.storePath = next("--store");
        else if (!std::strcmp(argv[i], "--clients"))
            loadgen.clients = util::parseUnsigned32(
                next("--clients"), "--clients", 1, 4096);
        else if (!std::strcmp(argv[i], "--requests"))
            loadgen.requestsPerClient = util::parseUnsigned32(
                next("--requests"), "--requests", 1);
        else if (!std::strcmp(argv[i], "--jobs-per-request"))
            loadgen.jobsPerRequest = util::parseUnsigned32(
                next("--jobs-per-request"), "--jobs-per-request", 1);
        else if (!std::strcmp(argv[i], "--retry-budget"))
            loadgen.retryBudget = util::parseUnsigned32(
                next("--retry-budget"), "--retry-budget");
        else if (!std::strcmp(argv[i], "--retry-backoff"))
            loadgen.retryBackoff =
                std::chrono::milliseconds(util::parseUnsigned32(
                    next("--retry-backoff"), "--retry-backoff", 1));
        else if (!std::strcmp(argv[i], "--seed"))
            loadgen.seed = util::parseUnsigned32(next("--seed"),
                                                 "--seed");
        else if (!std::strcmp(argv[i], "--metrics-out"))
            metricsOut = next("--metrics-out");
        else if (!std::strcmp(argv[i], "--listen"))
            listenPort = static_cast<int>(util::parseUnsigned32(
                next("--listen"), "--listen", 0, 65535));
        else if (!std::strcmp(argv[i], "--connect"))
            loadgen.serverPort =
                static_cast<uint16_t>(util::parseUnsigned32(
                    next("--connect"), "--connect", 1, 65535));
        else if (!std::strcmp(argv[i], "--host"))
            host = next("--host");
        else if (!std::strcmp(argv[i], "--max-connections"))
            maxConnections = util::parseUnsigned32(
                next("--max-connections"), "--max-connections", 1);
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
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tsp-serve: %s\n", e.what());
        return 1;
    }
}
