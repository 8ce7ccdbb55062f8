/**
 * @file
 * Closed-loop load generator for the experiment daemon: N client
 * threads each submit a request drawn from a job palette, wait for
 * the answer, and repeat — the overload-survival harness behind
 * `tsp-serve` and the service CI smoke.
 *
 * A shed submission is retried on the client's deterministic
 * decorrelated-jitter backoff schedule (util::jitteredRetryPolicy,
 * seeded from the client's identity) up to a capped retry budget,
 * then abandoned. The report aggregates admission/shed/abandon
 * counts, per-status answers, store cache hits, latency percentiles,
 * and a scheduling-independent digest of every answered result for
 * bit-identity checks across restarts.
 */

#ifndef TSP_SVC_LOADGEN_H
#define TSP_SVC_LOADGEN_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/daemon.h"
#include "util/cancel.h"
#include "util/retry.h"

namespace tsp::svc {

/** Knobs of one load-generation run. */
struct LoadGenOptions
{
    /** Concurrent closed-loop clients. */
    unsigned clients = 4;

    /** Requests each client issues (admitted or abandoned). */
    unsigned requestsPerClient = 16;

    /** Cells per request, drawn from the palette. */
    unsigned jobsPerRequest = 1;

    /** Jobs requests draw from; must not be empty. */
    std::vector<experiment::RunJob> palette;

    /** Root of every client's deterministic draw sequence. */
    uint64_t seed = 1;

    /** Per-request deadline; 0 = the daemon's default. */
    std::chrono::milliseconds deadline{0};

    /** Shed retries after the first attempt; 0 = give up at once. */
    unsigned retryBudget = 2;

    /** Initial backoff of the per-client retry schedule. */
    std::chrono::milliseconds retryBackoff{1};

    /** Stop issuing new requests once tripped (SIGTERM path). */
    const util::CancelToken *stop = nullptr;

    // ------------------------------------------------- socket mode

    /**
     * When serverPort != 0, clients submit over the wire to
     * serverHost:serverPort (each client with its own svc::Client)
     * instead of calling Daemon::submit directly. The daemon
     * argument is then only the degradation target. Socket and
     * in-process runs over the same options produce the same
     * resultDigest.
     */
    uint16_t serverPort = 0;
    std::string serverHost = "127.0.0.1";

    /** Per-frame silence budget of socket-mode clients. */
    std::chrono::milliseconds netTimeout{10000};

    /**
     * Reconnect-and-reissue budget of socket-mode clients. A request
     * whose transport stays dead past it runs locally on the daemon's
     * Lab and store (deterministic, so the digest is unchanged).
     */
    unsigned netRetryBudget = 4;
};

/** Aggregated outcome of a load-generation run. */
struct LoadGenReport
{
    uint64_t attempts = 0;   //!< submit() calls, retries included
    uint64_t admitted = 0;
    uint64_t shed = 0;       //!< rejections observed (pre-retry)
    uint64_t abandoned = 0;  //!< requests given up after the budget
    uint64_t skipped = 0;    //!< requests not issued (stop tripped)

    uint64_t completed = 0;
    uint64_t expired = 0;
    uint64_t deadlineExceeded = 0;
    uint64_t failed = 0;

    uint64_t cacheHits = 0;       //!< summed over responses
    uint64_t cellsExecuted = 0;   //!< summed over responses

    uint64_t reconnects = 0;      //!< socket-mode transport retries
    uint64_t degradedLocal = 0;   //!< requests served by local fallback

    /** Admit-to-answer latencies of answered requests, sorted. */
    std::vector<double> latenciesMs;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;

    /**
     * CRC-32 (hex) over every answered request's result lines in
     * (client, request) order — independent of worker scheduling, so
     * two runs with the same options against bit-identical daemons
     * produce the same digest.
     */
    std::string resultDigest;

    /** Multi-line human summary (shed rate, hit rate, p50/p99). */
    std::string summary() const;
};

/**
 * The retry policy of client @p client: jitteredRetryPolicy seeded
 * from the client's identity, with @p attempts total tries and
 * @p initial backoff. Exposed so tests can pin the schedule's
 * determinism and bounds.
 */
util::RetryPolicy loadGenRetryPolicy(unsigned client,
                                     unsigned attempts,
                                     std::chrono::milliseconds initial);

/**
 * A small standard palette for @p app on the daemon's Lab: every
 * (algorithm x standard machine point) cell, with and without the
 * infinite cache.
 */
std::vector<experiment::RunJob> defaultPalette(experiment::Lab &lab,
                                               workload::AppId app);

/**
 * Drive @p daemon with closed-loop clients until every client issued
 * its requests (or @p options.stop trips). Blocks; the daemon is
 * left running (callers decide when to drain).
 */
LoadGenReport runLoadGen(Daemon &daemon,
                         const LoadGenOptions &options);

} // namespace tsp::svc

#endif // TSP_SVC_LOADGEN_H
