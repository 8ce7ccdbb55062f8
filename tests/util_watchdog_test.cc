/**
 * @file
 * Tests of the robustness utilities: the deadline watchdog (flags
 * overdue tasks exactly once, leaves fast tasks alone) and bounded
 * retry with backoff (transient failures heal, exhaustion rethrows
 * the original error, PanicError is never retried).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/error.h"
#include "util/retry.h"
#include "util/watchdog.h"

namespace tsp::util {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, FlagsOverdueTaskOnce)
{
    std::mutex mutex;
    std::vector<std::string> flagged;
    Watchdog dog(
        20ms,
        [&](const std::string &label, std::chrono::milliseconds) {
            std::lock_guard<std::mutex> lock(mutex);
            flagged.push_back(label);
        },
        5ms);
    {
        auto guard = dog.watch("slow-cell");
        std::this_thread::sleep_for(120ms);
    }
    EXPECT_EQ(dog.overdueCount(), 1u);
    ASSERT_EQ(dog.overdueLabels().size(), 1u);
    EXPECT_EQ(dog.overdueLabels()[0], "slow-cell");
    std::lock_guard<std::mutex> lock(mutex);
    // Flagged exactly once despite many poll cycles past the deadline.
    ASSERT_EQ(flagged.size(), 1u);
    EXPECT_EQ(flagged[0], "slow-cell");
}

TEST(Watchdog, FastTasksAreNeverFlagged)
{
    Watchdog dog(250ms, [](const std::string &,
                           std::chrono::milliseconds) {}, 5ms);
    for (int i = 0; i < 5; ++i) {
        auto guard = dog.watch("fast-cell");
    }
    std::this_thread::sleep_for(40ms);
    EXPECT_EQ(dog.overdueCount(), 0u);
    EXPECT_TRUE(dog.overdueLabels().empty());
}

TEST(Watchdog, TracksConcurrentTasksIndependently)
{
    Watchdog dog(20ms, [](const std::string &,
                          std::chrono::milliseconds) {}, 5ms);
    std::thread slow([&] {
        auto guard = dog.watch("slow");
        std::this_thread::sleep_for(100ms);
    });
    std::thread fast([&] {
        auto guard = dog.watch("fast");
    });
    slow.join();
    fast.join();
    EXPECT_EQ(dog.overdueCount(), 1u);
    ASSERT_EQ(dog.overdueLabels().size(), 1u);
    EXPECT_EQ(dog.overdueLabels()[0], "slow");
}

TEST(Watchdog, DefaultCallbackWarnsWithoutCrashing)
{
    Watchdog dog(10ms);
    auto guard = dog.watch("warn-path");
    std::this_thread::sleep_for(60ms);
    EXPECT_EQ(dog.overdueCount(), 1u);
}

// ------------------------------------------------------------------- retry

TEST(Retry, SucceedsFirstTry)
{
    unsigned calls = 0;
    int result = retry([&] { ++calls; return 42; }, RetryPolicy{},
                       "test op");
    EXPECT_EQ(result, 42);
    EXPECT_EQ(calls, 1u);
}

TEST(Retry, TransientFailureHeals)
{
    unsigned calls = 0;
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.initialBackoff = 1ms;
    int result = retry(
        [&]() -> int {
            if (++calls < 3)
                fatal("transient filesystem hiccup");
            return 7;
        },
        policy, "healing op");
    EXPECT_EQ(result, 7);
    EXPECT_EQ(calls, 3u);
}

TEST(Retry, ExhaustionRethrowsTheOriginalError)
{
    unsigned calls = 0;
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.initialBackoff = 1ms;
    try {
        retry([&]() -> int { ++calls;
                             fatal("disk on fire"); },
              policy, "doomed op");
        FAIL() << "retry returned despite every attempt failing";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("disk on fire"),
                  std::string::npos);
    }
    EXPECT_EQ(calls, 3u);
}

TEST(Retry, PanicErrorIsNeverRetried)
{
    unsigned calls = 0;
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.initialBackoff = 1ms;
    EXPECT_THROW(retry([&]() -> int { ++calls;
                                      panic("invariant broken"); },
                       policy, "buggy op"),
                 PanicError);
    EXPECT_EQ(calls, 1u);
}

TEST(Retry, ZeroAttemptPolicyIsAPanic)
{
    RetryPolicy policy;
    policy.maxAttempts = 0;
    EXPECT_THROW(retry([] { return 1; }, policy, "bad policy"),
                 PanicError);
}

// ----------------------------------------------------------------- backoff

TEST(Backoff, JitterIsDeterministicPerSeed)
{
    RetryPolicy policy;
    policy.initialBackoff = 5ms;
    policy.maxBackoff = 500ms;
    policy.jitterSeed = 0xDEADBEEFull;

    std::vector<long long> a, b;
    BackoffSchedule first(policy), second(policy);
    for (int i = 0; i < 32; ++i) {
        a.push_back(first.next().count());
        b.push_back(second.next().count());
    }
    EXPECT_EQ(a, b) << "same seed must replay the same delays";
}

TEST(Backoff, JitterStaysWithinTheDecorrelatedBounds)
{
    RetryPolicy policy;
    policy.initialBackoff = 5ms;
    policy.maxBackoff = 200ms;
    policy.jitterSeed = 42;
    BackoffSchedule schedule(policy);
    long long previous = policy.initialBackoff.count();
    for (int i = 0; i < 200; ++i) {
        long long delay = schedule.next().count();
        EXPECT_GE(delay, policy.initialBackoff.count());
        EXPECT_LE(delay, policy.maxBackoff.count());
        // Decorrelated jitter: each delay is drawn from
        // [initial, 3 x previous], then capped.
        EXPECT_LE(delay, std::min<long long>(
                             3 * previous, policy.maxBackoff.count()));
        previous = delay;
    }
}

TEST(Backoff, DistinctSeedsProduceDistinctSchedules)
{
    RetryPolicy a, b;
    a.initialBackoff = b.initialBackoff = 5ms;
    a.maxBackoff = b.maxBackoff = 10000ms;
    a.jitterSeed = 1;
    b.jitterSeed = 2;
    BackoffSchedule sa(a), sb(b);
    bool diverged = false;
    for (int i = 0; i < 32 && !diverged; ++i)
        diverged = sa.next() != sb.next();
    EXPECT_TRUE(diverged);
}

TEST(Backoff, JitteredPolicyDerivesANonZeroSeedFromIdentity)
{
    RetryPolicy a = jitteredRetryPolicy("/tmp/journal-a.tspc");
    RetryPolicy b = jitteredRetryPolicy("/tmp/journal-b.tspc");
    EXPECT_NE(a.jitterSeed, 0u);
    EXPECT_NE(b.jitterSeed, 0u);
    EXPECT_NE(a.jitterSeed, b.jitterSeed);
    // Deterministic: the same identity always yields the same seed.
    EXPECT_EQ(jitteredRetryPolicy("/tmp/journal-a.tspc").jitterSeed,
              a.jitterSeed);
}

// ------------------------------------------------------------ cancellation

TEST(CancelToken, IsAOneWayLatch)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled("op"));
    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    token.requestCancel();  // idempotent
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.throwIfCancelled("op"), FatalError);
}

TEST(Watchdog, OverdueTaskTripsTheCancelToken)
{
    CancelToken token;
    Watchdog dog(20ms, [&token](const std::string &,
                                std::chrono::milliseconds) {
        token.requestCancel();
    }, 5ms);
    {
        auto guard = dog.watch("runaway-cell");
        for (int i = 0; i < 2000 && !token.cancelled(); ++i)
            std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(dog.overdueCount(), 1u);
}

TEST(Watchdog, FastTasksNeverTripTheCancelToken)
{
    CancelToken token;
    Watchdog dog(250ms, [&token](const std::string &,
                                 std::chrono::milliseconds) {
        token.requestCancel();
    }, 5ms);
    for (int i = 0; i < 5; ++i) {
        auto guard = dog.watch("quick-cell");
    }
    std::this_thread::sleep_for(40ms);
    EXPECT_FALSE(token.cancelled());
}

} // namespace
} // namespace tsp::util
