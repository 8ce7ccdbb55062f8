/**
 * @file
 * tsp-client: submit one study request to a tsp-serve --listen
 * daemon over the wire protocol, stream its progress, and print the
 * per-cell results with a drift-proof digest — the CI network smoke's
 * client half and a human probe for a running service
 * (docs/service.md).
 *
 *   tsp_client --port PORT [options]
 *
 * options:
 *   --host ADDR          server address (default 127.0.0.1)
 *   --port N             server port (required)
 *   --scale N            workload scale divisor (default 8); must
 *                        match the server's for store cache hits
 *   --app NAME           application (default Water)
 *   --alg NAME           placement algorithm; repeatable, one cell
 *                        per use at the first standard machine point
 *                        (default: LOAD-BAL and SHARE-REFS)
 *   --deadline MS        per-request deadline (0 = server default)
 *   --priority N         request priority (default 0)
 *   --retry-budget N     reconnect-and-reissue attempts (default 3)
 *   --retry-backoff MS   initial reconnect backoff (default 10)
 *   --timeout MS         receive silence budget; reset by every
 *                        progress frame (default 10000)
 *   --local-fallback     when the transport stays dead past the
 *                        budget, run the cells locally instead of
 *                        failing (the simulation is deterministic, so
 *                        the digest is unchanged)
 *
 * Re-issuing the same request is idempotent: the server memoizes
 * completed cells in the result store, so a retry after a torn
 * connection — or a kill -9 and restart — lands as cache hits with a
 * bit-identical answer.
 *
 * Exit codes: 0 answered (including via --local-fallback);
 * 1 transport dead; 2 usage; 3 rejected by a healthy server.
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "experiment/configs.h"
#include "experiment/lab.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/parse.h"
#include "workload/suite.h"

namespace {

using namespace tsp;
using experiment::MachinePoint;
using experiment::RunJob;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tsp_client --port PORT [options]\n"
        "  --host ADDR    --scale N         --app NAME\n"
        "  --alg NAME (repeatable)          --deadline MS\n"
        "  --priority N   --retry-budget N  --retry-backoff MS\n"
        "  --timeout MS   --local-fallback\n"
        "see docs/service.md for the wire protocol and semantics\n");
    return 2;
}

int
run(int argc, char **argv)
{
    svc::Client::Config config;
    workload::AppId app = workload::AppId::Water;
    std::vector<placement::Algorithm> algs;
    uint32_t scale = 8;
    std::chrono::milliseconds deadline{0};
    int priority = 0;
    bool localFallback = false;
    bool havePort = false;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            util::fatalIf(i + 1 >= argc,
                          std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--host"))
            config.host = next("--host");
        else if (!std::strcmp(argv[i], "--port")) {
            config.port = static_cast<uint16_t>(util::parseUnsigned32(
                next("--port"), "--port", 1, 65535));
            havePort = true;
        } else if (!std::strcmp(argv[i], "--scale"))
            scale = util::parseUnsigned32(next("--scale"), "--scale",
                                          1);
        else if (!std::strcmp(argv[i], "--app"))
            app = workload::appByName(next("--app"));
        else if (!std::strcmp(argv[i], "--alg")) {
            const char *name = next("--alg");
            std::optional<placement::Algorithm> alg =
                placement::algorithmFromName(name);
            util::fatalIf(!alg.has_value(),
                          std::string("unknown algorithm: ") + name);
            algs.push_back(*alg);
        } else if (!std::strcmp(argv[i], "--deadline"))
            deadline =
                std::chrono::milliseconds(util::parseUnsigned32(
                    next("--deadline"), "--deadline"));
        else if (!std::strcmp(argv[i], "--priority"))
            priority = static_cast<int>(util::parseUnsigned32(
                next("--priority"), "--priority", 0, 1000));
        else if (!std::strcmp(argv[i], "--retry-budget"))
            config.retryBudget = util::parseUnsigned32(
                next("--retry-budget"), "--retry-budget");
        else if (!std::strcmp(argv[i], "--retry-backoff"))
            config.retryBackoff =
                std::chrono::milliseconds(util::parseUnsigned32(
                    next("--retry-backoff"), "--retry-backoff", 1));
        else if (!std::strcmp(argv[i], "--timeout"))
            config.recvTimeout =
                std::chrono::milliseconds(util::parseUnsigned32(
                    next("--timeout"), "--timeout", 1));
        else if (!std::strcmp(argv[i], "--local-fallback"))
            localFallback = true;
        else
            return usage();
    }
    if (!havePort)
        return usage();
    if (algs.empty())
        algs = {placement::Algorithm::LoadBal,
                placement::Algorithm::ShareRefs};
    config.identity = "svc.tsp-client";

    // The request's cells: each named algorithm at the first standard
    // machine point of the scaled workload. The point depends only on
    // (app, scale), so the same flags always build — and re-issue —
    // the byte-identical request.
    uint32_t threads;
    {
        experiment::Lab lab(scale);
        threads = static_cast<uint32_t>(
            lab.traces(app).threadCount());
    }
    const MachinePoint point =
        experiment::standardSweep(threads).front();
    svc::StudyRequest request;
    request.deadline = deadline;
    request.priority = priority;
    for (placement::Algorithm alg : algs)
        request.jobs.push_back({app, alg, point, false});
    std::vector<RunJob> jobs = request.jobs;

    std::printf("tsp-client: %s scale %u -> %s:%u (%zu cells)\n",
                workload::appName(app).c_str(), scale,
                config.host.c_str(),
                static_cast<unsigned>(config.port), jobs.size());
    std::fflush(stdout);

    svc::Client client(config);
    svc::Client::Result got = client.submit(
        request, [](const svc::StudyProgress &progress) {
            if (progress.stage == svc::StudyProgress::Stage::Running)
                std::printf("progress: running %u/%u (%.3f ms)\n",
                            progress.cellsDone, progress.totalCells,
                            progress.lastCellMillis);
            else
                std::printf("progress: %s %u/%u\n",
                            svc::stageName(progress.stage).c_str(),
                            progress.cellsDone,
                            progress.totalCells);
            std::fflush(stdout);
        });

    if (got.rejected) {
        std::printf("rejected: %s (%u attempts)\n",
                    got.rejection.c_str(), got.attempts);
        return 3;
    }
    std::optional<svc::StudyResponse> answer;
    if (got.answered) {
        answer = std::move(got.response);
    } else if (localFallback) {
        std::printf("transport dead after %u attempts; running %zu "
                    "cells locally\n",
                    got.attempts, jobs.size());
        std::fflush(stdout);
        // The same deterministic simulation the server would have
        // run, minus the store: answers match bit for bit.
        experiment::Lab lab(scale);
        answer = svc::runStudy(lab, jobs);
    } else {
        std::printf("transport dead after %u attempts "
                    "(%u reconnects)\n",
                    got.attempts, got.reconnects);
        return 1;
    }

    const svc::StudyResponse &response = *answer;
    std::string lines;
    for (size_t i = 0; i < response.outcomes.size(); ++i)
        lines += svc::cellResultLine(jobs[i], response.outcomes[i]) + "\n";
    std::fputs(lines.c_str(), stdout);
    std::printf("status: %s, %u attempts, %u reconnects\n",
                svc::statusName(response.status).c_str(),
                got.attempts, got.reconnects);
    std::printf("cells: %llu executed, %llu store hits\n",
                static_cast<unsigned long long>(response.executed),
                static_cast<unsigned long long>(response.cacheHits));
    std::printf("result digest: %08x\n", util::crc32(lines));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tsp-client: %s\n", e.what());
        return 1;
    }
}
