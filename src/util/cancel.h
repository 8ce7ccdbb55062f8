/**
 * @file
 * Cooperative cancellation token for long-running sweeps.
 *
 * A CancelToken is a one-way latch: once tripped it stays cancelled.
 * Producers of long work (ParallelRunner, before every cell's
 * preparation and every simulation) poll it at safe points and wind
 * down cleanly — completed cells stay journaled, pending cells are
 * reported as cancelled, nothing is killed mid-write.
 *
 * A token trips when requestCancel() is called (a signal handler,
 * another thread, a per-cell hook) or, for a token made with a
 * deadline, by itself the first time it is polled at or after that
 * time on the clock it was given. The deadline adds no thread: the
 * poll reads the clock. The daemon hands its request tokens its own
 * clock, so a test's fake clock decides exactly which poll trips.
 *
 * The latch is one atomic pointer to a static reason string, which
 * the sweep engine reports as each skipped cell's error. The first
 * reason wins, whichever way the token trips. requestCancel() is
 * async-signal-safe when std::atomic<const char *> is lock-free (it
 * is on every supported platform), so tsp-run's SIGINT/SIGTERM
 * handlers can trip the token directly and let the sweep flush its
 * checkpoint, metrics and trace sink before exiting.
 */

#ifndef TSP_UTIL_CANCEL_H
#define TSP_UTIL_CANCEL_H

#include <atomic>
#include <chrono>
#include <functional>
#include <utility>

namespace tsp::util {

/** One-way cooperative cancellation latch, with an optional deadline. */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A token that trips only on requestCancel(). */
    CancelToken() = default;

    /**
     * A token that also trips itself, with @p reason, when it is
     * polled at or after @p deadline as read from @p now;
     * Clock::time_point::max() means no deadline, and @p now is then
     * never read. @p now must not throw and may be called from any
     * polling thread. @p reason must have static storage duration.
     */
    CancelToken(Clock::time_point deadline,
                std::function<Clock::time_point()> now,
                const char *reason)
        : deadline_(deadline), now_(std::move(now)),
          deadlineReason_(reason)
    {
    }

    /**
     * Latch the token; idempotent and async-signal-safe. @p reason
     * must have static storage duration; a later call keeps the
     * first reason.
     */
    void
    requestCancel(const char *reason =
                      "sweep cancelled before this cell started") noexcept
    {
        latch(reason);
    }

    /** True once the token has tripped; polls the deadline. */
    bool
    cancelled() const noexcept
    {
        return reason() != nullptr;
    }

    /** Why the token tripped; nullptr while it has not. Polls the
     *  deadline, and latches it once it has passed. */
    const char *
    reason() const noexcept
    {
        if (!reason_.load() && deadline_ != Clock::time_point::max() &&
            now_() >= deadline_)
            latch(deadlineReason_);
        return reason_.load();
    }

  private:
    void
    latch(const char *reason) const noexcept
    {
        const char *none = nullptr;
        reason_.compare_exchange_strong(none, reason);
    }

    Clock::time_point deadline_ = Clock::time_point::max();
    std::function<Clock::time_point()> now_;
    const char *deadlineReason_ = nullptr;
    mutable std::atomic<const char *> reason_{nullptr};
};

} // namespace tsp::util

#endif // TSP_UTIL_CANCEL_H
