/**
 * @file
 * Fork-join over an index range, used to fan independent simulation
 * runs across cores. parallelFor starts its threads, works alongside
 * them on the calling thread, and joins every one before it returns
 * or throws; no thread outlives the call.
 *
 * The default width is `TSP_JOBS` when set, else the hardware
 * concurrency.
 */

#ifndef TSP_UTIL_PARALLEL_FOR_H
#define TSP_UTIL_PARALLEL_FOR_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "obs/timer.h"

namespace tsp::util {

/**
 * The most threads one knob may ask for: TSP_JOBS, `tsp-run --jobs`,
 * and `tsp-run serve --workers` and `--clients` each take 1 to this.
 */
constexpr unsigned kMaxThreads = 1024;

/**
 * The default fork-join width: the TSP_JOBS environment variable if
 * it parses to an integer in [1, kMaxThreads], else
 * std::thread::hardware_concurrency() (minimum 1).
 */
unsigned defaultJobs();

/**
 * Run @p fn(i) for every i in [0, @p n) on up to @p width threads,
 * the calling thread included, and return once every iteration has
 * run. `width <= 1` or `n <= 1` runs every iteration inline on the
 * caller. Otherwise min(width, n) - 1 threads start and iterations
 * are handed out dynamically from one atomic counter.
 *
 * If iterations throw, the exception of the lowest-index failing
 * iteration is rethrown after every iteration has run. A thread that
 * fails to start (std::system_error, or an injected pool.dispatch
 * fault) loses no work: the started threads and the caller cover
 * every index. Its error is rethrown only after every started thread
 * has joined, and only if no iteration failed.
 */
template <typename F>
void
parallelFor(unsigned width, size_t n, F &&fn)
{
    std::mutex errMutex;
    size_t errIndex = std::numeric_limits<size_t>::max();
    std::exception_ptr error;
    std::atomic<size_t> next{0};

    auto shard = [&] {
        for (size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (i < errIndex) {
                    errIndex = i;
                    error = std::current_exception();
                }
            }
        }
    };

    // Utilization accounting reads the clock only while metrics are
    // enabled, so the disabled path is the bare shard loop.
    auto startedShard = [&] {
        if (obs::metricsEnabled()) {
            obs::StopWatch busy;
            shard();
            obs::poolWorkerBusyMicros().add(busy.elapsedUs());
        } else {
            shard();
        }
        obs::poolTasksExecuted().inc();
    };

    std::exception_ptr startError;
    std::vector<std::thread> threads;
    const size_t extra =
        width <= 1 || n <= 1 ? 0 : std::min<size_t>(width, n) - 1;
    threads.reserve(extra);
    for (size_t t = 0; t < extra; ++t) {
        try {
            TSP_FAULT_POINT("pool.dispatch");
            threads.emplace_back(startedShard);
        } catch (...) {
            if (!startError)
                startError = std::current_exception();
        }
    }
    shard();
    // Join EVERY started thread before propagating anything: they
    // still run against next, errMutex and error on this frame.
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
    if (startError)
        std::rethrow_exception(startError);
}

} // namespace tsp::util

#endif // TSP_UTIL_PARALLEL_FOR_H
