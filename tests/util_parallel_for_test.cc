/**
 * @file
 * Tests of util::parallelFor: inline and forked widths, the number of
 * threads it starts, exception propagation, deterministic error
 * selection, and the TSP_JOBS/default-jobs resolution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metric_defs.h"
#include "util/parallel_for.h"

namespace tsp::util {
namespace {

TEST(ParallelFor, WidthOneOrOneIterationRunsInlineOnCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (auto [width, n] : {std::pair<unsigned, size_t>{0, 16},
                            {1, 16},
                            {4, 1}}) {
        std::vector<std::thread::id> ran(n);
        parallelFor(width, n, [&](size_t i) {
            ran[i] = std::this_thread::get_id();
        });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(ran[i], caller)
                << "width " << width << ", index " << i;
    }
}

TEST(ParallelFor, StartsOneThreadFewerThanTheWidthItUses)
{
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    obs::Counter &started = obs::poolTasksExecuted();
    for (auto [width, n, threads] :
         {std::tuple<unsigned, size_t, uint64_t>{4, 64, 3},
          {8, 3, 2},
          {1, 64, 0},
          {4, 0, 0}}) {
        const uint64_t before = started.value();
        parallelFor(width, n, [](size_t) {});
        EXPECT_EQ(started.value() - before, threads)
            << "width " << width << ", n " << n;
    }
    obs::setMetricsEnabled(wasEnabled);
}

class ParallelForWidth : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ParallelForWidth, CoversEveryIndexExactlyOnce)
{
    constexpr size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(GetParam(), n, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(ParallelForWidth, ZeroIterationsIsANoOp)
{
    bool touched = false;
    parallelFor(GetParam(), 0, [&](size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST_P(ParallelForWidth, RethrowsLowestIndexException)
{
    // Two failing iterations: the lower index must win, at any width,
    // so error reporting is deterministic.
    try {
        parallelFor(GetParam(), 64, [&](size_t i) {
            if (i == 3)
                throw std::runtime_error("low");
            if (i == 57)
                throw std::runtime_error("high");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "low");
    }
}

TEST_P(ParallelForWidth, RunsEveryIterationDespiteFailures)
{
    constexpr size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(parallelFor(GetParam(), n,
                             [&](size_t i) {
                                 hits[i]++;
                                 if (i % 7 == 0)
                                     throw std::runtime_error("x");
                             }),
                 std::runtime_error);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(Widths, ParallelForWidth,
                         ::testing::Values(0u, 1u, 2u, 5u));

TEST(ParallelFor, DefaultJobsIsPositive)
{
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ParallelFor, UsesMultipleThreads)
{
    std::mutex m;
    std::set<std::thread::id> ids;
    // Enough iterations with a tiny stall that at least two threads
    // participate (the calling thread always does).
    parallelFor(5, 64, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(m);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 2u);
}

} // namespace
} // namespace tsp::util
