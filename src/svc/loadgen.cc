#include "svc/loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "experiment/configs.h"
#include "svc/client.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/rng.h"

namespace tsp::svc {

using experiment::RunJob;

namespace {

/** Sorted-latency percentile (nearest-rank). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::min(std::max<size_t>(rank, 1), sorted.size());
    return sorted[rank - 1];
}

/** What one client accumulated; merged in client order at the end. */
struct ClientTally
{
    LoadGenReport counts;  //!< counter fields only
    std::vector<double> latencies;
    std::string digestLines;
};

} // namespace

util::RetryPolicy
loadGenRetryPolicy(unsigned client, unsigned attempts,
                   std::chrono::milliseconds initial)
{
    util::RetryPolicy policy = util::jitteredRetryPolicy(
        util::concat("svc.loadgen/client-", client));
    policy.maxAttempts = std::max(1u, attempts);
    policy.initialBackoff = initial;
    policy.maxBackoff = std::chrono::milliseconds(250);
    return policy;
}

std::vector<RunJob>
defaultPalette(experiment::Lab &lab, workload::AppId app)
{
    uint32_t threads =
        static_cast<uint32_t>(lab.traces(app).threadCount());
    std::vector<RunJob> palette;
    for (placement::Algorithm alg :
         {placement::Algorithm::LoadBal,
          placement::Algorithm::ShareRefs}) {
        for (const experiment::MachinePoint &point :
             experiment::standardSweep(threads)) {
            palette.push_back({app, alg, point, false});
            palette.push_back({app, alg, point, true});
        }
    }
    return palette;
}

std::string
LoadGenReport::summary() const
{
    uint64_t issued = admitted + abandoned;
    double shedRate =
        attempts > 0
            ? 100.0 * static_cast<double>(shed) /
                  static_cast<double>(attempts)
            : 0.0;
    uint64_t cells = cellsExecuted + cacheHits;
    double hitRate =
        cells > 0 ? 100.0 * static_cast<double>(cacheHits) /
                        static_cast<double>(cells)
                  : 0.0;
    std::ostringstream os;
    os << "requests: " << issued << " issued, " << admitted
       << " admitted, " << abandoned << " abandoned, " << skipped
       << " skipped\n";
    os << "attempts: " << attempts << " (" << shed
       << " shed, shed rate " << shedRate << "%)\n";
    os << "answers: " << completed << " completed, " << expired
       << " expired, " << deadlineExceeded << " deadline-exceeded, "
       << failed << " failed\n";
    os << "cells: " << cellsExecuted << " executed, " << cacheHits
       << " store hits (hit rate " << hitRate << "%)\n";
    if (reconnects > 0 || degradedLocal > 0) {
        os << "network: " << reconnects << " reconnects, "
           << degradedLocal << " requests degraded to local runs\n";
    }
    os << "latency ms: p50 " << p50Ms << ", p99 " << p99Ms << ", max "
       << maxMs << "\n";
    os << "result digest: " << resultDigest;
    return os.str();
}

LoadGenReport
runLoadGen(Daemon &daemon, const LoadGenOptions &options)
{
    util::fatalIf(options.palette.empty(),
                  "load generator needs a non-empty job palette");
    util::fatalIf(options.jobsPerRequest == 0,
                  "load generator needs >= 1 job per request");
    unsigned clients = std::max(1u, options.clients);
    std::vector<ClientTally> tallies(clients);

    // Width = clients, so every client runs its closed loop at once.
    util::parallelFor(clients, clients, [&](size_t index) {
        const unsigned client = static_cast<unsigned>(index);
        ClientTally &tally = tallies[client];
        uint64_t rng =
            options.seed * 0x9e3779b97f4a7c15ull + client + 1;
        util::BackoffSchedule schedule(loadGenRetryPolicy(
            client, 1 + options.retryBudget, options.retryBackoff));

        std::optional<Client> netClient;
        if (options.serverPort != 0) {
            Client::Config net;
            net.host = options.serverHost;
            net.port = options.serverPort;
            net.recvTimeout = options.netTimeout;
            net.retryBudget = options.netRetryBudget;
            net.retryBackoff = options.retryBackoff;
            net.identity =
                util::concat("svc.loadgen/client-", client);
            netClient.emplace(net);
        }

        for (unsigned r = 0; r < options.requestsPerClient; ++r) {
            if (options.stop && options.stop->cancelled()) {
                tally.counts.skipped +=
                    options.requestsPerClient - r;
                return;
            }
            StudyRequest request;
            request.deadline = options.deadline;
            request.priority = static_cast<int>(util::splitmix64(rng) % 3);
            for (unsigned j = 0; j < options.jobsPerRequest; ++j) {
                request.jobs.push_back(
                    options.palette[util::splitmix64(rng) %
                                    options.palette.size()]);
            }

            // Closed loop with retry-after-shed: every rejection
            // backs off on the client's deterministic jitter
            // schedule, up to the capped budget. Socket-mode
            // transport failures are retried inside the wire client;
            // only a server that is alive-and-shedding reaches this
            // loop's backoff.
            std::optional<StudyResponse> answer;
            for (unsigned attempt = 0;
                 attempt <= options.retryBudget; ++attempt) {
                ++tally.counts.attempts;
                if (netClient) {
                    Client::Result got = netClient->submit(request);
                    tally.counts.reconnects += got.reconnects;
                    if (got.answered) {
                        answer = std::move(got.response);
                        break;
                    }
                    if (!got.alive()) {
                        // Graceful degradation: the same cells on
                        // the local Lab and store. The simulation is
                        // deterministic, so the digest is unchanged.
                        answer = runStudy(daemon.lab(), request.jobs,
                                          {.checkpoint = daemon.store()});
                        ++tally.counts.degradedLocal;
                        break;
                    }
                    ++tally.counts.shed;
                } else {
                    SubmitResult submitted = daemon.submit(request);
                    if (submitted.admitted()) {
                        answer = submitted.accepted->get();
                        break;
                    }
                    ++tally.counts.shed;
                }
                if (attempt == options.retryBudget ||
                    (options.stop && options.stop->cancelled()))
                    break;
                std::this_thread::sleep_for(schedule.next());
            }
            if (!answer) {
                ++tally.counts.abandoned;
                continue;
            }

            StudyResponse response = std::move(*answer);
            ++tally.counts.admitted;
            tally.latencies.push_back(response.totalMillis);
            switch (response.status) {
            case StudyStatus::Completed:
                ++tally.counts.completed;
                break;
            case StudyStatus::Expired:
                ++tally.counts.expired;
                break;
            case StudyStatus::DeadlineExceeded:
                ++tally.counts.deadlineExceeded;
                break;
            case StudyStatus::Failed:
                ++tally.counts.failed;
                break;
            }
            tally.counts.cacheHits += response.cacheHits;
            tally.counts.cellsExecuted += response.executed;

            // Digest lines in (client, request) order: independent of
            // daemon scheduling, so shed-free runs against
            // bit-identical daemons digest identically.
            std::ostringstream line;
            line << 'c' << client << 'r' << r << ' '
                 << statusName(response.status);
            for (size_t i = 0; i < response.outcomes.size(); ++i) {
                line << ' '
                     << cellResultLine(request.jobs[i],
                                       response.outcomes[i]);
            }
            line << '\n';
            tally.digestLines += line.str();
        }
    });

    LoadGenReport report;
    std::string digestText;
    for (const ClientTally &tally : tallies) {
        report.attempts += tally.counts.attempts;
        report.admitted += tally.counts.admitted;
        report.shed += tally.counts.shed;
        report.abandoned += tally.counts.abandoned;
        report.skipped += tally.counts.skipped;
        report.completed += tally.counts.completed;
        report.expired += tally.counts.expired;
        report.deadlineExceeded += tally.counts.deadlineExceeded;
        report.failed += tally.counts.failed;
        report.cacheHits += tally.counts.cacheHits;
        report.cellsExecuted += tally.counts.cellsExecuted;
        report.reconnects += tally.counts.reconnects;
        report.degradedLocal += tally.counts.degradedLocal;
        report.latenciesMs.insert(report.latenciesMs.end(),
                                  tally.latencies.begin(),
                                  tally.latencies.end());
        digestText += tally.digestLines;
    }
    std::sort(report.latenciesMs.begin(), report.latenciesMs.end());
    report.p50Ms = percentile(report.latenciesMs, 0.50);
    report.p99Ms = percentile(report.latenciesMs, 0.99);
    report.maxMs = report.latenciesMs.empty()
                       ? 0.0
                       : report.latenciesMs.back();
    char digest[12];
    std::snprintf(digest, sizeof(digest), "%08x",
                  util::crc32(digestText));
    report.resultDigest = digest;
    return report;
}

} // namespace tsp::svc
