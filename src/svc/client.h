/**
 * @file
 * Wire-protocol client for the experiment service: connect / send /
 * receive with hard timeouts, streamed progress delivery, and
 * reconnect-and-reissue on transport failure.
 *
 * Retry safety: the study simulation is deterministic and the daemon
 * memoizes every completed cell in the content-addressed result
 * store, so re-issuing a request after a half-served connection (or
 * a server kill -9 and restart) is idempotent — the retry lands as
 * store cache hits and the answer is bit-identical. The retry jitter
 * is keyed by the request's config digest (`wire::requestDigest`), so
 * clients re-issuing distinct requests back off on distinct
 * schedules.
 *
 * Progress frames reset the receive deadline: a server that is alive
 * and heartbeating cell i/N is *slow*, and only a silent one is
 * *dead*. A server-side Reject(Shed/Draining/Internal) is a
 * definitive answer (the server is healthy and refusing, or cannot
 * answer the study at all, as when its response exceeds the frame
 * cap), reported without burning transport retries; everything else — refused connects, timeouts,
 * torn streams, malformed answers — is a transport failure and
 * retried. A client that exhausts its budget reports !alive() so the
 * caller can degrade to a local in-process run.
 */

#ifndef TSP_SVC_CLIENT_H
#define TSP_SVC_CLIENT_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "svc/daemon.h"
#include "svc/wire.h"

namespace tsp::svc {

/** One-request-at-a-time wire client (one connection per submit). */
class Client
{
  public:
    struct Config
    {
        std::string host = "127.0.0.1";
        uint16_t port = 0;

        std::chrono::milliseconds connectTimeout{2000};
        std::chrono::milliseconds sendTimeout{5000};

        /**
         * Silence budget: reset by every received frame, so a
         * heartbeating server never times out mid-study.
         */
        std::chrono::milliseconds recvTimeout{10000};

        /** Reconnect-and-reissue attempts beyond the first. */
        unsigned retryBudget = 3;

        /** Initial backoff of the jittered reconnect schedule. */
        std::chrono::milliseconds retryBackoff{10};

        /** Names this client in logs and seeds its retry jitter. */
        std::string identity = "svc.client";
    };

    /** What a submit() ended as. */
    struct Result
    {
        /** The server delivered a Response frame. */
        bool answered = false;

        /** The server answered Reject(Shed/Draining/Internal) —
         *  healthy but refusing; retrying immediately is pointless. */
        bool rejected = false;
        std::string rejection;

        /** Valid iff answered. */
        StudyResponse response;

        unsigned attempts = 0;    //!< connections tried
        unsigned reconnects = 0;  //!< transport failures retried

        /** False = transport dead after the full retry budget; the
         *  caller should degrade to a local in-process run. */
        bool alive() const { return answered || rejected; }
    };

    using ProgressFn = std::function<void(const StudyProgress &)>;

    explicit Client(const Config &config) : config_(config) {}

    /**
     * Submit @p request over a fresh connection, invoking
     * @p onProgress for every Progress frame, reconnecting and
     * re-issuing on transport failure until the retry budget is
     * spent. Never throws on transport trouble — that is the
     * Result's job.
     */
    Result submit(const StudyRequest &request,
                  const ProgressFn &onProgress = {});

    const Config &config() const { return config_; }

  private:
    /** One connect-send-receive attempt; throws on transport error. */
    Result attemptOnce(const std::string &submitFrame,
                       const ProgressFn &onProgress);

    Config config_;
};

} // namespace tsp::svc

#endif // TSP_SVC_CLIENT_H
