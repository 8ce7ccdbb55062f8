/**
 * @file
 * Tests of the robustness utilities: bounded retry with backoff
 * (transient failures heal, exhaustion rethrows the original error,
 * PanicError is never retried, jitter is deterministic per seed) and
 * the cancellation token (a one-way latch whose first reason wins,
 * and whose deadline trips it at the first poll at or after its time).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "util/cancel.h"
#include "util/error.h"
#include "util/retry.h"

namespace tsp::util {
namespace {

using namespace std::chrono_literals;

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
    EXPECT_EQ(token.reason(), nullptr);
    token.requestCancel();
    EXPECT_TRUE(token.cancelled());
    token.requestCancel("a later reason");  // idempotent
    EXPECT_TRUE(token.cancelled());
    EXPECT_STREQ(token.reason(), "sweep cancelled before this cell started");
}

constexpr const char *kDeadlineReason = "test: the deadline passed";

/** A token whose deadline is 10 ms on a clock the test sets. */
struct FakeClockToken
{
    const CancelToken::Clock::time_point t0{};
    CancelToken::Clock::time_point now = t0;
    int reads = 0;
    CancelToken token{t0 + 10ms,
                      [this] {
                          ++reads;
                          return now;
                      },
                      kDeadlineReason};
};

TEST(CancelToken, TripsAtItsDeadlineWithItsReason)
{
    FakeClockToken fake;
    fake.now = fake.t0 + 9ms;
    EXPECT_FALSE(fake.token.cancelled());
    EXPECT_EQ(fake.token.reason(), nullptr);
    fake.now = fake.t0 + 10ms;  // at the deadline, not only past it
    EXPECT_TRUE(fake.token.cancelled());
    EXPECT_STREQ(fake.token.reason(), kDeadlineReason);

    // A latch: a clock read as earlier again cannot untrip it, and
    // once tripped the token reads the clock no more.
    const int reads = fake.reads;
    fake.now = fake.t0;
    EXPECT_TRUE(fake.token.cancelled());
    EXPECT_STREQ(fake.token.reason(), kDeadlineReason);
    EXPECT_EQ(fake.reads, reads);
}

TEST(CancelToken, EarlierRequestKeepsTheFirstReason)
{
    FakeClockToken fake;
    fake.token.requestCancel("test: cancelled first");
    fake.now = fake.t0 + 20ms;
    EXPECT_TRUE(fake.token.cancelled());
    EXPECT_STREQ(fake.token.reason(), "test: cancelled first");
}

TEST(CancelToken, WithoutADeadlineNeverTripsByItself)
{
    int reads = 0;
    const CancelToken token(CancelToken::Clock::time_point::max(),
                            [&reads] {
                                ++reads;
                                return CancelToken::Clock::time_point::max();
                            },
                            kDeadlineReason);
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), nullptr);
    EXPECT_EQ(reads, 0);  // no deadline, so no clock read

    const CancelToken plain;
    EXPECT_FALSE(plain.cancelled());
}

} // namespace
} // namespace tsp::util
