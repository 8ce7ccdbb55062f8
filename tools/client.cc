/**
 * @file
 * `tsp-run client`: submit one study request to a `tsp-run serve
 * --listen` daemon over the wire protocol, stream its progress, and
 * print the per-cell results with a drift-proof digest — the CI
 * network smoke's client half and a probe for a running service
 * (docs/service.md). The cells are each --alg (default LOAD-BAL and
 * SHARE-REFS) at the first standard machine point; --scale must match
 * the server's for store cache hits. Re-issuing the same request is
 * idempotent: the server memoizes completed cells in the result
 * store, so a retry after a torn connection — or a kill -9 and
 * restart — lands as cache hits with a bit-identical answer, and
 * --local-fallback runs the cells locally, to the same digest, when
 * the transport stays dead past --reconnects.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "experiment/configs.h"
#include "experiment/lab.h"
#include "flags.h"
#include "svc/client.h"
#include "svc/daemon.h"
#include "tsp-run.h"
#include "util/checksum.h"
#include "workload/suite.h"

namespace tsp::tools {

using experiment::MachinePoint;
using experiment::RunJob;

int
runClient(int argc, char **argv)
{
    svc::Client::Config config;
    workload::AppId app = workload::AppId::Water;
    std::vector<placement::Algorithm> algs;
    uint32_t scale = 8;
    std::chrono::milliseconds deadline{0};
    int priority = 0;
    bool localFallback = false;

    for (Args args(argc, argv, 2); args.next();) {
        if (args.is(kHost))
            config.host = args.get(kHost);
        else if (args.is("--port"))
            config.port = static_cast<uint16_t>(args.number32(1, 65535));
        else if (args.is(kScale))
            scale = args.get(kScale);
        else if (args.is(kApp))
            app = args.get(kApp);
        else if (args.is("--alg"))
            algs.push_back(args.parsed(parseAlgorithm));
        else if (args.is(kDeadline))
            deadline = args.get(kDeadline);
        else if (args.is("--priority"))
            priority = static_cast<int>(args.number32(0, 1000));
        else if (args.is("--reconnects"))
            config.retryBudget = args.number32();
        else if (args.is("--reconnect-backoff"))
            config.retryBackoff =
                std::chrono::milliseconds(args.number32(1));
        else if (args.is("--timeout"))
            config.recvTimeout =
                std::chrono::milliseconds(args.number32(1));
        else if (args.is("--local-fallback"))
            localFallback = true;
        else
            throw args.unknown();
    }
    if (config.port == 0)
        throw UsageError("--port is required");
    if (algs.empty())
        algs = {placement::Algorithm::LoadBal,
                placement::Algorithm::ShareRefs};
    config.identity = "tsp-run client";

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

    std::printf("client: %s scale %u -> %s:%u (%zu cells)\n",
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
        return kExitDegraded;
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
        return kExitError;
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

} // namespace tsp::tools
