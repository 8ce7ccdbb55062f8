/**
 * @file
 * Deadline watchdog for long-running jobs. A background thread polls
 * the set of in-flight tasks and flags (once, via a callback; by
 * default a warn() line) every task that has been running longer than
 * the configured deadline. The watchdog never kills a task — the
 * experiment engine's jobs are pure computations that will finish —
 * it makes a hung or pathological cell *visible* in a multi-hour
 * sweep instead of silently stalling the run.
 */

#ifndef TSP_UTIL_WATCHDOG_H
#define TSP_UTIL_WATCHDOG_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tsp::util {

/** Background deadline monitor over RAII-registered tasks. */
class Watchdog
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Invoked (off the task's thread) when a task exceeds the
     *  deadline; receives the task label and its elapsed time. */
    using Callback = std::function<void(
        const std::string &label, std::chrono::milliseconds elapsed)>;

    /**
     * @param deadline flag tasks running longer than this
     * @param onOverdue callback; empty = warn() a standard message
     * @param pollInterval monitor wake-up period
     */
    explicit Watchdog(
        std::chrono::milliseconds deadline,
        Callback onOverdue = Callback(),
        std::chrono::milliseconds pollInterval =
            std::chrono::milliseconds(20));

    /** Joins the monitor thread. Outstanding guards must not outlive
     *  the watchdog. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** RAII handle: registration lives from watch() to destruction. */
    class Guard
    {
      public:
        Guard(Guard &&other) noexcept
            : dog_(other.dog_), id_(other.id_)
        {
            other.dog_ = nullptr;
        }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;
        Guard &operator=(Guard &&) = delete;
        ~Guard();

      private:
        friend class Watchdog;
        Guard(Watchdog *dog, uint64_t id) : dog_(dog), id_(id) {}

        Watchdog *dog_;
        uint64_t id_;
    };

    /** Register a task under @p label until the Guard dies. */
    [[nodiscard]] Guard watch(std::string label);

    /** Number of tasks flagged overdue so far (each at most once). */
    uint64_t overdueCount() const;

    /** Labels of every task flagged so far, in flag order. */
    std::vector<std::string> overdueLabels() const;

    /** The configured deadline. */
    std::chrono::milliseconds deadline() const { return deadline_; }

  private:
    struct Task
    {
        std::string label;
        Clock::time_point start;
        bool flagged = false;
    };

    void unwatch(uint64_t id);
    void loop();

    std::chrono::milliseconds deadline_;
    std::chrono::milliseconds poll_;
    Callback callback_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<uint64_t, Task> tasks_;
    std::vector<std::string> overdue_;
    uint64_t nextId_ = 0;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace tsp::util

#endif // TSP_UTIL_WATCHDOG_H
