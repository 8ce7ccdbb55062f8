/**
 * @file
 * Tests of the obs metrics registry: exactness under concurrent
 * mutation, histogram bucket boundary semantics, the disabled path's
 * zero-allocation guarantee, registry collision rules, and the JSON
 * snapshot round-tripped through the obs JSON parser.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metric_defs.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/parallel_for.h"

using namespace tsp;

// --------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// it, so a test can assert that a region of code allocates nothing.

namespace {
std::atomic<uint64_t> allocationCount{0};
}

// GCC pairs its builtin operator-new knowledge with the free() below
// and warns; the pairing is in fact consistent (new = malloc here).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    allocationCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** RAII: force the metrics flag and restore the previous state. */
class MetricsEnabledScope
{
  public:
    explicit MetricsEnabledScope(bool enabled)
        : previous_(obs::metricsEnabled())
    {
        obs::setMetricsEnabled(enabled);
    }
    ~MetricsEnabledScope() { obs::setMetricsEnabled(previous_); }

  private:
    bool previous_;
};

TEST(ObsMetrics, CountersAreExactUnderConcurrentIncrements)
{
    MetricsEnabledScope on(true);
    obs::Counter &c = obs::Registry::instance().counter(
        "test.concurrent_adds", "test", "concurrency test counter");
    const uint64_t before = c.value();

    constexpr size_t kTasks = 64;
    constexpr int kIncrementsPerTask = 10000;
    util::parallelFor(9, kTasks, [&](size_t) {
        for (int i = 0; i < kIncrementsPerTask; ++i)
            c.inc();
    });

    EXPECT_EQ(c.value() - before, kTasks * kIncrementsPerTask);
}

TEST(ObsMetrics, HistogramObservationsAreExactUnderConcurrency)
{
    MetricsEnabledScope on(true);
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.concurrent_observe", "test",
        "concurrency test histogram", {1.0, 10.0});
    const uint64_t before = h.count();

    constexpr size_t kTasks = 32;
    constexpr int kObservationsPerTask = 1000;
    util::parallelFor(9, kTasks, [&](size_t) {
        for (int i = 0; i < kObservationsPerTask; ++i)
            h.observe(0.5);
    });

    EXPECT_EQ(h.count() - before, kTasks * kObservationsPerTask);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 * h.count());
}

TEST(ObsMetrics, HistogramBucketBoundariesAreUpperInclusive)
{
    MetricsEnabledScope on(true);
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.bounds", "test", "boundary test", {1.0, 2.0, 5.0});
    ASSERT_EQ(h.bounds().size(), 3u);

    h.observe(0.5);   // bucket 0
    h.observe(1.0);   // bucket 0 (upper bound is inclusive)
    h.observe(1.001); // bucket 1
    h.observe(2.0);   // bucket 1
    h.observe(5.0);   // bucket 2
    h.observe(5.001); // overflow

    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_NEAR(h.sum(), 14.502, 1e-9);
}

TEST(ObsMetrics, GaugeTracksValueAndHighWater)
{
    MetricsEnabledScope on(true);
    obs::Gauge &g = obs::Registry::instance().gauge(
        "test.gauge", "test", "gauge test");

    g.add(5);
    g.add(-2);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.max(), 5);
    g.set(10);
    EXPECT_EQ(g.value(), 10);
    EXPECT_EQ(g.max(), 10);
    g.set(1);
    EXPECT_EQ(g.max(), 10);
}

TEST(ObsMetrics, DisabledPathAllocatesNothingAndRecordsNothing)
{
    // Materialize the handles first: registration allocates, steady
    // state must not.
    obs::Counter &c = obs::simRuns();
    obs::Gauge &g = obs::svcQueueDepth();
    obs::Histogram &h = obs::sweepCellMillis();

    MetricsEnabledScope off(false);
    const uint64_t counterBefore = c.value();
    const int64_t gaugeBefore = g.value();
    const uint64_t histBefore = h.count();

    const uint64_t allocsBefore =
        allocationCount.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        c.add(3);
        g.add(1);
        h.observe(1.5);
    }
    const uint64_t allocsAfter =
        allocationCount.load(std::memory_order_relaxed);

    EXPECT_EQ(allocsAfter - allocsBefore, 0u)
        << "disabled metric mutations must not allocate";
    EXPECT_EQ(c.value(), counterBefore);
    EXPECT_EQ(g.value(), gaugeBefore);
    EXPECT_EQ(h.count(), histBefore);
}

TEST(ObsMetrics, EnabledSteadyStateMutationAllocatesNothing)
{
    obs::Counter &c = obs::simRuns();
    obs::Histogram &h = obs::sweepCellMillis();

    MetricsEnabledScope on(true);
    c.add(1);       // warm any first-use paths
    h.observe(1.0);

    const uint64_t allocsBefore =
        allocationCount.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        c.add(1);
        h.observe(2.5);
    }
    const uint64_t allocsAfter =
        allocationCount.load(std::memory_order_relaxed);
    EXPECT_EQ(allocsAfter - allocsBefore, 0u)
        << "enabled steady-state mutation must not allocate";
}

TEST(ObsMetrics, RegisteringANameWithADifferentKindThrows)
{
    obs::Registry::instance().counter("test.kind_clash", "test",
                                      "first registration");
    EXPECT_THROW(obs::Registry::instance().gauge("test.kind_clash",
                                                 "test", "clash"),
                 util::FatalError);
    EXPECT_THROW(obs::Registry::instance().histogram(
                     "test.kind_clash", "test", "clash", {1.0}),
                 util::FatalError);
    // Same kind finds the same handle instead of throwing.
    obs::Counter &a = obs::Registry::instance().counter(
        "test.kind_clash", "test", "first registration");
    obs::Counter &b = obs::Registry::instance().counter(
        "test.kind_clash", "test", "ignored duplicate help");
    EXPECT_EQ(&a, &b);
}

TEST(ObsMetrics, HistogramBoundsAreValidated)
{
    EXPECT_THROW(obs::Registry::instance().histogram(
                     "test.empty_bounds", "test", "bad", {}),
                 util::FatalError);
    EXPECT_THROW(obs::Registry::instance().histogram(
                     "test.unsorted_bounds", "test", "bad",
                     {2.0, 1.0}),
                 util::FatalError);
}

TEST(ObsMetrics, JsonSnapshotRoundTripsThroughTheParser)
{
    MetricsEnabledScope on(true);
    obs::Counter &c = obs::Registry::instance().counter(
        "test.json_counter", "test", "json test");
    obs::Gauge &g = obs::Registry::instance().gauge(
        "test.json_gauge", "test", "json test");
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.json_hist", "test", "json test", {1.0, 2.0});
    const uint64_t cBefore = c.value();
    c.add(7);
    g.set(42);
    h.observe(1.5);

    obs::JsonValue root =
        obs::parseJson(obs::Registry::instance().toJson());
    const obs::JsonValue &metrics = root.at("metrics");
    ASSERT_TRUE(metrics.isObject());

    const obs::JsonValue &cj = metrics.at("test.json_counter");
    EXPECT_EQ(cj.at("kind").string, "counter");
    EXPECT_EQ(cj.at("owner").string, "test");
    EXPECT_EQ(static_cast<uint64_t>(cj.at("value").number),
              cBefore + 7);

    const obs::JsonValue &gj = metrics.at("test.json_gauge");
    EXPECT_EQ(gj.at("kind").string, "gauge");
    EXPECT_EQ(static_cast<int64_t>(gj.at("value").number), 42);
    EXPECT_GE(static_cast<int64_t>(gj.at("max").number), 42);

    const obs::JsonValue &hj = metrics.at("test.json_hist");
    EXPECT_EQ(hj.at("kind").string, "histogram");
    ASSERT_EQ(hj.at("bounds").array.size(), 2u);
    ASSERT_EQ(hj.at("buckets").array.size(), 3u);
    EXPECT_GE(static_cast<uint64_t>(hj.at("count").number), 1u);
}

TEST(ObsMetrics, ResetValuesZeroesEverythingButKeepsHandles)
{
    MetricsEnabledScope on(true);
    obs::Counter &c = obs::Registry::instance().counter(
        "test.reset", "test", "reset test");
    c.add(5);
    ASSERT_GT(c.value(), 0u);
    obs::Registry::instance().resetValues();
    EXPECT_EQ(c.value(), 0u);
    c.add(2);
    EXPECT_EQ(c.value(), 2u);
}

TEST(ObsMetrics, CatalogRegistersEveryDocumentedAccessor)
{
    auto all = obs::allMetrics();
    // The catalog in obs/metric_defs.cc (test.* registrations above
    // also live in the registry, so >=).
    size_t catalog = 0;
    for (const auto &info : all) {
        if (info.name.rfind("test.", 0) != 0)
            ++catalog;
    }
    EXPECT_EQ(catalog, 56u)
        << "metric added or removed: update obs/metric_defs.h, "
           "docs/observability.md and this count together";
}

} // namespace
