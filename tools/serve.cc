/**
 * @file
 * `tsp-run serve`: host the resident experiment daemon (svc::Daemon)
 * and drive it with the built-in closed-loop load generator, or with
 * --listen serve the wire protocol to `tsp-run client` — the
 * overload-survival harness behind the service CI smoke and a
 * capacity-tuning tool (docs/service.md). SIGINT/SIGTERM begin a
 * graceful drain: clients stop issuing, the daemon stops admitting,
 * queued and in-flight requests finish, the report still prints, and
 * the exit code is 0 (kill -9 is the crash the result store is built
 * to survive).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "flags.h"
#include "obs/metrics.h"
#include "svc/daemon.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "tsp-run.h"
#include "workload/suite.h"

namespace tsp::tools {

int
runServe(int argc, char **argv)
{
    svc::Daemon::Config config;
    svc::LoadGenOptions loadgen;
    workload::AppId app = workload::AppId::Water;
    std::string metricsOut;
    std::string host = "127.0.0.1";
    int listenPort = -1;  // -1 = load-generator mode
    size_t maxConnections = 64;

    for (Args args(argc, argv, 2); args.next();) {
        if (args.is(kScale))
            config.scale = args.get(kScale);
        else if (args.is(kApp))
            app = args.get(kApp);
        else if (args.is("--workers"))
            config.workers = args.parsed(parseThreads);
        else if (args.is("--capacity"))
            config.queueCapacity = args.number32(1);
        else if (args.is(kDeadline))
            config.defaultDeadline = args.get(kDeadline);
        else if (args.is("--store"))
            config.storePath = args.value();
        else if (args.is("--clients"))
            loadgen.clients = args.parsed(parseThreads);
        else if (args.is("--requests"))
            loadgen.requestsPerClient = args.number32(1);
        else if (args.is("--jobs-per-request"))
            loadgen.jobsPerRequest = args.number32(1);
        else if (args.is("--shed-retries"))
            loadgen.retryBudget = args.number32();
        else if (args.is("--shed-backoff"))
            loadgen.retryBackoff =
                std::chrono::milliseconds(args.number32(1));
        else if (args.is("--seed"))
            loadgen.seed = args.number32();
        else if (args.is(kMetricsOut))
            metricsOut = args.get(kMetricsOut);
        else if (args.is("--listen"))
            listenPort = static_cast<int>(args.number32(0, 65535));
        else if (args.is("--connect"))
            loadgen.serverPort =
                static_cast<uint16_t>(args.number32(1, 65535));
        else if (args.is(kHost))
            host = args.get(kHost);
        else if (args.is("--max-connections"))
            maxConnections = args.number32(1);
        else
            throw args.unknown();
    }
    if (!metricsOut.empty())
        obs::setMetricsEnabled(true);

    const util::CancelToken &stop = cancelOnSignal();
    svc::Daemon daemon(config);
    loadgen.palette = svc::defaultPalette(daemon.lab(), app);
    loadgen.stop = &stop;
    loadgen.serverHost = host;

    std::printf("serve: %s scale %u, %u workers, capacity %zu, "
                "store %s\n",
                workload::appName(app).c_str(), config.scale,
                config.workers, config.queueCapacity,
                config.storePath.empty() ? "(none)"
                                         : config.storePath.c_str());
    std::fflush(stdout);

    if (listenPort >= 0) {
        // Network serve mode: host the wire protocol until a signal
        // begins the drain. `tsp-run client` (or a socket-mode
        // loadgen) is the traffic source.
        svc::Server::Config serverConfig;
        serverConfig.host = host;
        serverConfig.port = static_cast<uint16_t>(listenPort);
        serverConfig.maxConnections = maxConnections;
        svc::Server server(daemon, serverConfig);
        std::printf("listening on %s:%u\n", host.c_str(),
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);

        while (!stop.cancelled())
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
    if (caughtSignal() != 0) {
        std::printf("drained cleanly after signal %d\n", caughtSignal());
    } else {
        std::printf("drained cleanly\n");
    }

    if (!metricsOut.empty())
        obs::Registry::instance().writeJsonFile(metricsOut);
    return 0;
}

} // namespace tsp::tools
