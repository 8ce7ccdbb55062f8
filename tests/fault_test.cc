/**
 * @file
 * Tests of the deterministic fault-injection framework: spec grammar,
 * arm/disarm/current semantics, exact nth-hit ordinals (one-shot and
 * persistent), the three failure kinds, the catalog-or-panic rule for
 * site names, the disarmed fast path's zero-allocation guarantee, and
 * the end-to-end pin that a sweep with the framework compiled in but
 * disarmed (or armed at an unreachable ordinal) is bit-identical to
 * one that never touches it.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/lab.h"
#include "fault/fault.h"
#include "util/error.h"
#include "util/parallel_for.h"

using namespace tsp;

// --------------------------------------------------------------------
// Global allocation counter (same idiom as obs_metrics_test): every
// operator new in this binary bumps it, so a test can assert that a
// region of code allocates nothing.

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

/** RAII: leave every test with the framework disarmed. */
class DisarmedScope
{
  public:
    DisarmedScope() { fault::disarm(); }
    ~DisarmedScope() { fault::disarm(); }
};

/** One cataloged injection site exercised directly by these tests. */
void
hitSimStep()
{
    TSP_FAULT_POINT("sim.step");
}

// ------------------------------------------------------ spec grammar

TEST(FaultSpec, ParsesOneShotErrorSpec)
{
    fault::FaultSpec spec =
        fault::parseFaultSpec("store.append:2:error");
    EXPECT_EQ(spec.site, "store.append");
    EXPECT_EQ(spec.nth, 2u);
    EXPECT_FALSE(spec.persistent);
    EXPECT_EQ(spec.kind, fault::Kind::Error);
    EXPECT_EQ(spec.describe(), "store.append:2:error");
}

TEST(FaultSpec, ParsesPersistentFatalSpec)
{
    fault::FaultSpec spec =
        fault::parseFaultSpec("trace.write:1+:fatal");
    EXPECT_EQ(spec.site, "trace.write");
    EXPECT_EQ(spec.nth, 1u);
    EXPECT_TRUE(spec.persistent);
    EXPECT_EQ(spec.kind, fault::Kind::Fatal);
    EXPECT_EQ(spec.describe(), "trace.write:1+:fatal");
}

TEST(FaultSpec, ParsesDelayKind)
{
    fault::FaultSpec spec = fault::parseFaultSpec("sim.step:3:delay");
    EXPECT_EQ(spec.kind, fault::Kind::Delay);
    EXPECT_EQ(spec.nth, 3u);
}

TEST(FaultSpec, MalformedSpecsAreFatal)
{
    EXPECT_THROW(fault::parseFaultSpec(""), util::FatalError);
    EXPECT_THROW(fault::parseFaultSpec("sim.step"), util::FatalError);
    EXPECT_THROW(fault::parseFaultSpec("sim.step:1"),
                 util::FatalError);
    EXPECT_THROW(fault::parseFaultSpec("sim.step:zero:error"),
                 util::FatalError);
    EXPECT_THROW(fault::parseFaultSpec("sim.step:0:error"),
                 util::FatalError);
    EXPECT_THROW(fault::parseFaultSpec("sim.step:1:eventually"),
                 util::FatalError);
}

TEST(FaultSpec, UncatalogedSiteIsFatal)
{
    EXPECT_THROW(fault::parseFaultSpec("nope.nothere:1:error"),
                 util::FatalError);
}

TEST(FaultSpec, KindNamesRoundTrip)
{
    ASSERT_EQ(fault::allKinds().size(), 3u);
    for (fault::Kind kind : fault::allKinds())
        EXPECT_EQ(fault::kindFromName(fault::kindName(kind)), kind);
    EXPECT_THROW(fault::kindFromName("segfault"), util::FatalError);
}

// --------------------------------------------------- catalog/registry

TEST(FaultRegistry, CatalogPinsTheSiteCount)
{
    EXPECT_EQ(fault::Registry::catalog().size(), 18u)
        << "fault site added or removed: update fault/fault.cc, "
           "docs/robustness.md and this count together";
    for (const fault::SiteInfo &site : fault::Registry::catalog()) {
        EXPECT_TRUE(fault::Registry::isCataloged(site.name));
        EXPECT_FALSE(site.owner.empty());
        EXPECT_FALSE(site.help.empty());
    }
    EXPECT_FALSE(fault::Registry::isCataloged("nope.nothere"));
}

TEST(FaultRegistry, ArmDisarmAndCurrentAgree)
{
    DisarmedScope scope;
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::Registry::instance().current().has_value());

    fault::arm("sim.step:5:delay");
    EXPECT_TRUE(fault::armed());
    auto current = fault::Registry::instance().current();
    ASSERT_TRUE(current.has_value());
    EXPECT_EQ(current->describe(), "sim.step:5:delay");

    fault::disarm();
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::Registry::instance().current().has_value());
}

TEST(FaultRegistry, ArmingAnUncatalogedSiteIsFatal)
{
    DisarmedScope scope;
    EXPECT_THROW(
        fault::Registry::instance().arm({"nope.nothere", 1, false,
                                         fault::Kind::Error}),
        util::FatalError);
    EXPECT_FALSE(fault::armed());
}

TEST(FaultRegistry, UncatalogedFaultPointIsAPanic)
{
    DisarmedScope scope;
    // The catalog-or-panic rule only runs on the armed path (the
    // disarmed fast path never looks at the name).
    fault::arm("sim.step:1000000:error");
    EXPECT_THROW(TSP_FAULT_POINT("nope.nothere"), util::PanicError);
}

// ------------------------------------------------------ nth semantics

TEST(FaultInjection, OneShotFiresExactlyAtTheNthHit)
{
    DisarmedScope scope;
    fault::Registry::instance().resetCounters();
    fault::arm("sim.step:2:error");

    EXPECT_NO_THROW(hitSimStep());  // hit 1
    try {
        hitSimStep();               // hit 2: fires
        FAIL() << "armed ordinal did not fire";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("sim.step"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("hit 2"),
                  std::string::npos);
    }
    EXPECT_NO_THROW(hitSimStep());  // hit 3: one-shot is spent

    fault::Site &site = fault::Registry::instance().site("sim.step");
    EXPECT_EQ(site.hits(), 3u);
    EXPECT_EQ(site.triggered(), 1u);
}

TEST(FaultInjection, PersistentFiresOnEveryHitFromTheNth)
{
    DisarmedScope scope;
    fault::Registry::instance().resetCounters();
    fault::arm("sim.step:2+:error");

    EXPECT_NO_THROW(hitSimStep());
    EXPECT_THROW(hitSimStep(), std::runtime_error);
    EXPECT_THROW(hitSimStep(), std::runtime_error);
    EXPECT_THROW(hitSimStep(), std::runtime_error);

    fault::Site &site = fault::Registry::instance().site("sim.step");
    EXPECT_EQ(site.hits(), 4u);
    EXPECT_EQ(site.triggered(), 3u);
}

TEST(FaultInjection, RearmingResetsTheOrdinalCount)
{
    DisarmedScope scope;
    fault::arm("sim.step:2:error");
    EXPECT_NO_THROW(hitSimStep());
    // Re-arming the same spec restarts hit counting from zero.
    fault::arm("sim.step:2:error");
    EXPECT_NO_THROW(hitSimStep());
    EXPECT_THROW(hitSimStep(), std::runtime_error);
}

TEST(FaultInjection, FatalKindThrowsFatalError)
{
    DisarmedScope scope;
    fault::arm("sim.step:1:fatal");
    EXPECT_THROW(hitSimStep(), util::FatalError);
}

TEST(FaultInjection, DelayKindStallsWithoutThrowing)
{
    DisarmedScope scope;
    fault::Registry::instance().resetCounters();
    fault::arm("sim.step:1:delay");
    EXPECT_NO_THROW(hitSimStep());
    EXPECT_EQ(fault::Registry::instance().site("sim.step").triggered(),
              1u);
}

TEST(FaultInjection, InjectedCountAccumulatesAcrossArms)
{
    DisarmedScope scope;
    uint64_t before = fault::Registry::instance().injectedCount();
    fault::arm("sim.step:1:delay");
    hitSimStep();
    fault::arm("sim.step:1:delay");
    hitSimStep();
    EXPECT_EQ(fault::Registry::instance().injectedCount(), before + 2);
}

TEST(FaultInjection, CountersResetOnDemand)
{
    DisarmedScope scope;
    fault::arm("sim.step:1000000:error");
    hitSimStep();
    fault::disarm();
    fault::Registry::instance().resetCounters();
    for (const auto &c : fault::Registry::instance().counters()) {
        EXPECT_EQ(c.hits, 0u) << c.name;
        EXPECT_EQ(c.triggered, 0u) << c.name;
    }
}

// ------------------------------------------------- disabled fast path

TEST(FaultInjection, DisarmedFaultPointsAllocateNothing)
{
    DisarmedScope scope;
    // Warm the site's static registration first (it allocates once).
    fault::arm("sim.step:1000000:error");
    hitSimStep();
    fault::disarm();

    const uint64_t hitsBefore =
        fault::Registry::instance().site("sim.step").hits();
    const uint64_t allocsBefore =
        allocationCount.load(std::memory_order_relaxed);
    for (int i = 0; i < 100000; ++i)
        hitSimStep();
    const uint64_t allocsAfter =
        allocationCount.load(std::memory_order_relaxed);

    EXPECT_EQ(allocsAfter - allocsBefore, 0u)
        << "the disarmed fault-point fast path must not allocate";
    // And it must not count: hits are only tracked while armed.
    EXPECT_EQ(fault::Registry::instance().site("sim.step").hits(),
              hitsBefore);
}

// ------------------------------------------- pool dispatch faults

TEST(FaultInjection, PoolDispatchFaultJoinsAllShardsBeforeThrowing)
{
    DisarmedScope scope;
    // One-shot dispatch fault with >= 2 threads to start: exactly one
    // thread fails to start while the others keep iterating against
    // parallelFor's stack-local shard state. Regression for
    // rethrowing before every started thread has joined, which would
    // unwind that state under the running shards (use-after-scope).
    fault::arm("pool.dispatch:1:error");
    constexpr size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    try {
        util::parallelFor(5, n, [&](size_t i) {
            hits[i]++;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
        FAIL() << "expected the injected dispatch fault";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("pool.dispatch"),
                  std::string::npos);
    }
    fault::disarm();
    // The surviving shards plus the calling thread still covered
    // every index exactly once before the fault propagated.
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(FaultInjection, PoolDispatchFaultYieldsToIterationErrors)
{
    DisarmedScope scope;
    // A thread that fails to start and an iteration that throws: the
    // iteration's error is the one the caller sees.
    fault::arm("pool.dispatch:1:error");
    try {
        util::parallelFor(5, 64, [&](size_t i) {
            if (i == 9)
                throw std::runtime_error("iteration 9");
        });
        FAIL() << "expected the iteration's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "iteration 9");
    }
    fault::disarm();
}

// ------------------------------------- end-to-end determinism pins

TEST(FaultInjection, DisarmedSweepIsBitIdenticalToUnreachableArm)
{
    DisarmedScope scope;
    experiment::Lab lab(64);

    auto baseline = lab.run(workload::AppId::Water,
                            placement::Algorithm::ShareRefs, {4, 2},
                            false);

    // Compiled in and armed — but at an ordinal no run ever reaches —
    // the framework must not perturb a single statistic.
    fault::arm("sim.step:1000000000:error");
    auto armedRun = lab.run(workload::AppId::Water,
                            placement::Algorithm::ShareRefs, {4, 2},
                            false);
    fault::disarm();

    EXPECT_EQ(baseline.executionTime, armedRun.executionTime);
    EXPECT_EQ(baseline.loadImbalance, armedRun.loadImbalance);
    EXPECT_EQ(baseline.placement.assignment(),
              armedRun.placement.assignment());
    EXPECT_EQ(baseline.stats.totalMemRefs(),
              armedRun.stats.totalMemRefs());
    EXPECT_EQ(baseline.stats.totalHits(), armedRun.stats.totalHits());
    EXPECT_EQ(baseline.stats.totalMisses(),
              armedRun.stats.totalMisses());
    EXPECT_EQ(baseline.stats.totalInvalidationsSent(),
              armedRun.stats.totalInvalidationsSent());
    EXPECT_EQ(baseline.stats.sharingCompulsoryMisses,
              armedRun.stats.sharingCompulsoryMisses);
    // The armed run counted sim.step hits (one per memory reference).
    EXPECT_GT(fault::Registry::instance().site("sim.step").hits(), 0u);
}

} // namespace
