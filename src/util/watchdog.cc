#include "util/watchdog.h"

#include "obs/metric_defs.h"
#include "util/logging.h"

namespace tsp::util {

Watchdog::Watchdog(std::chrono::milliseconds deadline,
                   Callback onOverdue,
                   std::chrono::milliseconds pollInterval)
    : deadline_(deadline), poll_(pollInterval),
      callback_(std::move(onOverdue))
{
    if (!callback_) {
        callback_ = [](const std::string &label,
                       std::chrono::milliseconds elapsed) {
            warn(concat("[watchdog] job '", label,
                        "' exceeded its deadline (running ",
                        elapsed.count(), " ms)"));
        };
    }
    thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

Watchdog::Guard::~Guard()
{
    if (dog_)
        dog_->unwatch(id_);
}

Watchdog::Guard
Watchdog::watch(std::string label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t id = nextId_++;
    tasks_[id] = Task{std::move(label), Clock::now(), false};
    return Guard(this, id);
}

void
Watchdog::unwatch(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.erase(id);
}

uint64_t
Watchdog::overdueCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overdue_.size();
}

std::vector<std::string>
Watchdog::overdueLabels() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overdue_;
}

void
Watchdog::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_.wait_for(lock, poll_, [this] { return stop_; });
        if (stop_)
            break;
        auto now = Clock::now();
        // Collect under the lock, fire callbacks outside it: the
        // callback may log or block, and a concurrently-dying Guard
        // must be able to unregister meanwhile.
        std::vector<
            std::pair<std::string, std::chrono::milliseconds>>
            fire;
        for (auto &[id, task] : tasks_) {
            if (task.flagged)
                continue;
            auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - task.start);
            if (elapsed < deadline_)
                continue;
            task.flagged = true;
            overdue_.push_back(task.label);
            fire.emplace_back(task.label, elapsed);
            obs::watchdogDeadlineFires().inc();
        }
        if (!fire.empty()) {
            lock.unlock();
            for (const auto &[label, elapsed] : fire)
                callback_(label, elapsed);
            lock.lock();
        }
    }
}

} // namespace tsp::util
