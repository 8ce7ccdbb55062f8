/**
 * @file
 * Bounded retry with capped backoff, for transient failures on the
 * robustness paths (result store appends, trace file IO, the wire
 * client and the load generator). Deliberately small: a policy
 * struct, a backoff schedule, and one function template.
 *
 * The schedule applies *decorrelated jitter* (each delay drawn
 * uniformly from [initialBackoff, 3 x previous delay], capped), so
 * threads that hit the same transient failure do not retry in
 * lockstep and re-collide on every attempt. The jitter RNG is seeded
 * from the policy alone — the delay sequence is a pure function of
 * the seed, so tests stay exactly reproducible.
 *
 * PanicError is never retried — an internal invariant violation will
 * not heal by waiting — and the last attempt's exception propagates
 * unchanged so callers keep the original error type and message.
 */

#ifndef TSP_UTIL_RETRY_H
#define TSP_UTIL_RETRY_H

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "util/checksum.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tsp::util {

/** Backoff schedule for retry(). */
struct RetryPolicy
{
    /** Total attempts, including the first (>= 1). */
    unsigned maxAttempts = 3;

    /** Delay before the second attempt. */
    std::chrono::milliseconds initialBackoff{10};

    /** Backoff ceiling. */
    std::chrono::milliseconds maxBackoff{1000};

    /**
     * Seed of the deterministic decorrelated jitter. Call sites that
     * can retry concurrently (one thread per app/cell) should derive
     * the seed from their identity — jitteredRetryPolicy hashes the
     * target path — so contending threads spread out instead of
     * thundering back in step.
     */
    uint64_t jitterSeed = 0;
};

/**
 * The delay sequence retry() sleeps between attempts. Exposed as its
 * own class so tests can pin determinism and bounds without timing
 * real sleeps.
 */
class BackoffSchedule
{
  public:
    explicit BackoffSchedule(const RetryPolicy &policy)
        : policy_(policy), state_(policy.jitterSeed),
          backoff_(policy.initialBackoff)
    {}

    /** The delay to sleep before the next attempt. */
    std::chrono::milliseconds
    next()
    {
        std::chrono::milliseconds current = backoff_;
        // Decorrelated jitter: next in [initial, 3 x previous], capped.
        long long lo = policy_.initialBackoff.count();
        long long hi =
            std::max<long long>(lo, 3 * current.count());
        long long span = hi - lo + 1;
        long long drawn =
            lo + static_cast<long long>(splitmix64(state_) %
                                        static_cast<uint64_t>(span));
        backoff_ = std::min(std::chrono::milliseconds(drawn),
                            policy_.maxBackoff);
        return std::min(current, policy_.maxBackoff);
    }

  private:
    RetryPolicy policy_;
    uint64_t state_;
    std::chrono::milliseconds backoff_;
};

/**
 * Invoke @p fn, retrying on any std::exception except PanicError per
 * @p policy. Each failed attempt logs a warning naming @p what; the
 * final failure rethrows the original exception.
 */
template <typename F>
auto
retry(F &&fn, const RetryPolicy &policy, const std::string &what)
    -> decltype(fn())
{
    panicIf(policy.maxAttempts == 0, "retry policy needs >= 1 attempt");
    BackoffSchedule schedule(policy);
    for (unsigned attempt = 1;; ++attempt) {
        try {
            return fn();
        } catch (const PanicError &) {
            throw;  // a bug, not a transient condition
        } catch (const std::exception &e) {
            if (attempt >= policy.maxAttempts)
                throw;
            std::chrono::milliseconds backoff = schedule.next();
            warn(concat(what, " failed (attempt ", attempt, "/",
                        policy.maxAttempts, "): ", e.what(),
                        "; retrying in ", backoff.count(), " ms"));
            std::this_thread::sleep_for(backoff);
        }
    }
}

/**
 * A RetryPolicy whose jitter seed is derived from @p identity (e.g.
 * the file path being written), so distinct targets back off on
 * distinct, reproducible schedules.
 */
inline RetryPolicy
jitteredRetryPolicy(const std::string &identity)
{
    RetryPolicy policy;
    policy.jitterSeed = fnv1a(identity);
    return policy;
}

} // namespace tsp::util

#endif // TSP_UTIL_RETRY_H
