/**
 * @file
 * Cooperative cancellation token for long-running sweeps.
 *
 * A CancelToken is a one-way latch: once requestCancel() is called the
 * token stays cancelled. Producers of long work (ParallelRunner's
 * fan-out loop, the Watchdog monitor) poll it at safe points and wind
 * down cleanly — completed cells stay journaled, pending cells are
 * reported as cancelled, nothing is killed mid-write.
 *
 * The latch is one atomic pointer to a static reason string, which
 * the sweep engine reports as each skipped cell's error. The first
 * reason wins. requestCancel() is async-signal-safe when
 * std::atomic<const char *> is lock-free (it is on every supported
 * platform), so tsp-run's SIGINT/SIGTERM handlers can trip the token
 * directly and let the sweep flush its checkpoint, metrics and trace
 * sink before exiting.
 */

#ifndef TSP_UTIL_CANCEL_H
#define TSP_UTIL_CANCEL_H

#include <atomic>
#include <string>

#include "util/error.h"

namespace tsp::util {

/** One-way cooperative cancellation latch. */
class CancelToken
{
  public:
    /**
     * Latch the token; idempotent and async-signal-safe. @p reason
     * must have static storage duration; a later call keeps the
     * first reason.
     */
    void
    requestCancel(const char *reason =
                      "sweep cancelled before this cell started") noexcept
    {
        const char *none = nullptr;
        reason_.compare_exchange_strong(none, reason);
    }

    /** True once requestCancel() has been called. */
    bool
    cancelled() const noexcept
    {
        return reason_.load() != nullptr;
    }

    /** Why the token tripped; nullptr while it has not. */
    const char *
    reason() const noexcept
    {
        return reason_.load();
    }

    /** Throw FatalError("<what> cancelled") when cancelled. */
    void
    throwIfCancelled(const std::string &what) const
    {
        fatalIf(cancelled(), what + " cancelled");
    }

  private:
    std::atomic<const char *> reason_{nullptr};
};

} // namespace tsp::util

#endif // TSP_UTIL_CANCEL_H
