/**
 * @file
 * Tests of the parallel experiment engine: ParallelRunner fan-out
 * order and deduplication, Lab's concurrent memoization, and the
 * headline guarantee — study results are bit-identical between
 * serial (jobs=1) and wide (jobs=N) execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/studies.h"
#include "obs/metric_defs.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/error.h"
#include "util/parallel_for.h"

namespace tsp::experiment {
namespace {

using placement::Algorithm;
using workload::AppId;

constexpr uint32_t kScale = 64;

unsigned
wideJobs()
{
    return std::max(4u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------- ParallelRunner

TEST(ParallelRunner, ResultsComeBackInInputOrder)
{
    Lab lab(kScale);
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::LoadBal, {4, 2}, false},
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::ShareRefs, {8, 1}, false},
    };
    auto parallel = ParallelRunner(lab, wideJobs()).runAll(jobs);
    ASSERT_EQ(parallel.size(), jobs.size());

    Lab serialLab(kScale);
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto expect = serialLab.run(jobs[i].app, jobs[i].alg,
                                    jobs[i].point,
                                    jobs[i].infiniteCache);
        EXPECT_EQ(parallel[i].executionTime, expect.executionTime);
        EXPECT_EQ(parallel[i].placement.assignment(),
                  expect.placement.assignment());
        EXPECT_EQ(parallel[i].loadImbalance, expect.loadImbalance);
    }
}

TEST(ParallelRunner, DuplicateJobsShareOneResult)
{
    Lab lab(kScale);
    RunJob job{AppId::Water, Algorithm::Random, {4, 2}, false};
    auto results =
        ParallelRunner(lab, wideJobs()).runAll({job, job, job});
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].executionTime, results[1].executionTime);
    EXPECT_EQ(results[0].executionTime, results[2].executionTime);
    EXPECT_EQ(results[0].placement.assignment(),
              results[2].placement.assignment());
}

/** What onCell reported for each input index, and whether two
 *  calls ever overlapped. */
struct CellLog
{
    struct Call
    {
        size_t count = 0;
        bool ok = false;
        std::string error;
        double wallMs = -1.0;
    };

    explicit CellLog(size_t jobs) : calls(jobs) {}

    std::function<void(size_t, const Outcome<RunResult> &, double)>
    hook()
    {
        return [this](size_t i, const Outcome<RunResult> &outcome,
                      double wallMs) {
            if (inside.fetch_add(1) != 0)
                overlapped = true;
            // Widen the window a concurrent call would have to hit.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            Call &call = calls.at(i);
            ++call.count;
            call.ok = outcome.ok();
            call.error = outcome.ok() ? std::string() : outcome.error();
            call.wallMs = wallMs;
            inside.fetch_sub(1);
        };
    }

    std::vector<Call> calls;
    std::atomic<int> inside{0};
    std::atomic<bool> overlapped{false};
};

TEST(ParallelRunner, OnCellSettlesEveryInputOnce)
{
    // One executed cell with a duplicate, one replayed cell with a
    // duplicate, one failed cell and one more executed cell: alone,
    // forked wide, and as lockstep lanes.
    const RunJob ran{AppId::Water, Algorithm::LoadBal, {4, 2}, false};
    const RunJob replayed{AppId::Water, Algorithm::Random, {2, 4}, false};
    const RunJob poisoned{AppId::Water, Algorithm::ShareRefs, {4, 2},
                          false};
    const RunJob alsoRan{AppId::Water, Algorithm::MinShare, {8, 1},
                         false};
    const std::vector<RunJob> jobs = {ran, replayed, poisoned, ran,
                                      alsoRan, replayed};
    const std::string path = testing::TempDir() + "/on_cell.tspc";

    for (SweepOptions options :
         {SweepOptions{.jobs = 1, .batch = 1},
          SweepOptions{.jobs = wideJobs(), .batch = 1},
          SweepOptions{.jobs = wideJobs(), .batch = 3}}) {
        SCOPED_TRACE(testing::Message() << "jobs " << options.jobs
                                        << ", batch " << options.batch);
        std::remove(path.c_str());
        Lab lab(kScale);
        Checkpoint cp(path, kScale);
        cp.record(replayed,
                  lab.run(replayed.app, replayed.alg, replayed.point));

        CellLog log(jobs.size());
        SweepStats stats;
        options.checkpoint = &cp;
        options.statsOut = &stats;
        options.onCell = log.hook();
        options.faultInjector = [&](const RunJob &job) {
            if (job.alg == poisoned.alg)
                util::fatal("injected cell failure");
        };
        auto outcomes = ParallelRunner(lab, options).runAllOutcomes(jobs);
        ASSERT_EQ(outcomes.size(), jobs.size());
        EXPECT_EQ(stats.fromCheckpoint, 1u);
        EXPECT_EQ(stats.executed, 3u);
        EXPECT_EQ(stats.failed, 1u);

        EXPECT_FALSE(log.overlapped);
        for (size_t i = 0; i < jobs.size(); ++i) {
            const CellLog::Call &call = log.calls[i];
            EXPECT_EQ(call.count, 1u) << "input " << i;
            EXPECT_EQ(call.ok, outcomes[i].ok()) << "input " << i;
        }
        // Executed cells report their time; a duplicate shares it.
        EXPECT_GT(log.calls[0].wallMs, 0.0);
        EXPECT_EQ(log.calls[3].wallMs, log.calls[0].wallMs);
        EXPECT_GT(log.calls[4].wallMs, 0.0);
        // Replayed and failed cells report 0.0.
        EXPECT_EQ(log.calls[1].wallMs, 0.0);
        EXPECT_EQ(log.calls[5].wallMs, 0.0);
        EXPECT_EQ(log.calls[2].wallMs, 0.0);
        EXPECT_FALSE(log.calls[2].ok);
        EXPECT_NE(log.calls[2].error.find("injected cell failure"),
                  std::string::npos)
            << log.calls[2].error;
    }
    std::remove(path.c_str());
}

TEST(ParallelRunner, ZeroJobsClampsToSerial)
{
    Lab lab(kScale);
    ParallelRunner runner(lab, 0);
    EXPECT_EQ(runner.jobs(), 1u);
    auto results = runner.runAll(
        {{AppId::Water, Algorithm::LoadBal, {2, 4}, false}});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].executionTime, 0u);
}

TEST(ParallelRunner, WarmupMatchesLazyMaterialization)
{
    Lab warm(kScale), lazy(kScale);
    const std::vector<AppId> apps = {AppId::Water, AppId::BarnesHut};
    util::parallelFor(wideJobs(), apps.size(), [&](size_t i) {
        warm.warmup(apps[i], /*coherence=*/true);
    });
    for (AppId app : apps) {
        EXPECT_EQ(warm.analysis(app).totalRefs(),
                  lazy.analysis(app).totalRefs());
        EXPECT_EQ(warm.coherenceMatrix(app).total(),
                  lazy.coherenceMatrix(app).total());
    }
}

// ------------------------------------------------- concurrent memoization

TEST(LabConcurrency, ConcurrentCallersShareOneCachedInstance)
{
    Lab lab(kScale);
    constexpr size_t n = 16;
    std::vector<const trace::TraceSet *> traces(n, nullptr);
    std::vector<const analysis::StaticAnalysis *> analyses(n, nullptr);
    util::parallelFor(5, n, [&](size_t i) {
        traces[i] = &lab.traces(AppId::Water);
        analyses[i] = &lab.analysis(AppId::Water);
    });
    for (size_t i = 1; i < n; ++i) {
        EXPECT_EQ(traces[i], traces[0]);
        EXPECT_EQ(analyses[i], analyses[0]);
    }
}

TEST(LabConcurrency, DifferentAppsMaterializeConcurrently)
{
    Lab lab(kScale);
    const std::vector<AppId> apps = {AppId::Water, AppId::BarnesHut,
                                     AppId::MP3D, AppId::Cholesky};
    std::atomic<uint64_t> totalRefs{0};
    util::parallelFor(5, apps.size(), [&](size_t i) {
        totalRefs += lab.analysis(apps[i]).totalRefs();
    });
    uint64_t expect = 0;
    Lab serial(kScale);
    for (AppId app : apps)
        expect += serial.analysis(app).totalRefs();
    EXPECT_EQ(totalRefs.load(), expect);
}

// -------------------------------------------- serial/parallel determinism

TEST(Determinism, ExecTimeStudyBitIdenticalAcrossJobs)
{
    const std::vector<Algorithm> algs = {
        Algorithm::Random, Algorithm::LoadBal, Algorithm::ShareRefs,
        Algorithm::MinShare};
    for (AppId app : {AppId::Water, AppId::BarnesHut}) {
        Lab serialLab(kScale), parallelLab(kScale);
        auto serial = execTimeStudy(serialLab, app, algs, {.jobs = 1});
        auto wide =
            execTimeStudy(parallelLab, app, algs, {.jobs = wideJobs()});
        ASSERT_EQ(serial.size(), wide.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].alg, wide[i].alg);
            EXPECT_EQ(serial[i].point.processors,
                      wide[i].point.processors);
            EXPECT_EQ(serial[i].point.contexts,
                      wide[i].point.contexts);
            EXPECT_EQ(serial[i].cycles, wide[i].cycles);
            // Exact (bitwise) double equality is the contract.
            EXPECT_EQ(serial[i].normalizedToRandom,
                      wide[i].normalizedToRandom);
            EXPECT_EQ(serial[i].loadImbalance, wide[i].loadImbalance);
        }
    }
}

TEST(Determinism, ResultsBitIdenticalWithObservabilityOnOrOff)
{
    // The observability acceptance bar: metrics recording plus a live
    // trace sink must not perturb a single bit of any result, at any
    // width.
    const std::vector<Algorithm> algs = {
        Algorithm::Random, Algorithm::LoadBal, Algorithm::ShareRefs};
    const AppId app = AppId::Water;

    obs::setMetricsEnabled(false);
    Lab plainLab(kScale);
    auto plain = execTimeStudy(plainLab, app, algs, {.jobs = wideJobs()});

    obs::setMetricsEnabled(true);
    const std::string tracePath =
        testing::TempDir() + "obs_determinism_trace.json";
    std::vector<double> cellMillis;
    std::vector<ExecTimePoint> observed;
    {
        obs::TraceSink sink(tracePath, "determinism");
        obs::TraceSink::installGlobal(&sink);
        Lab obsLab(kScale);
        SweepOptions options;
        options.jobs = wideJobs();
        options.onCell = [&](size_t, const Outcome<RunResult> &,
                             double wallMs) {
            cellMillis.push_back(wallMs);
        };
        observed = execTimeStudy(obsLab, app, algs, options);
    }
    obs::setMetricsEnabled(false);

    ASSERT_EQ(plain.size(), observed.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].cycles, observed[i].cycles);
        EXPECT_EQ(plain[i].normalizedToRandom,
                  observed[i].normalizedToRandom);
        EXPECT_EQ(plain[i].loadImbalance, observed[i].loadImbalance);
    }

    // And the observability side effects actually happened.
    EXPECT_FALSE(cellMillis.empty());
    bool sawTiming = false;
    for (size_t i = 0; i < observed.size(); ++i) {
        if (observed[i].wallMs > 0.0)
            sawTiming = true;
        EXPECT_GE(observed[i].wallMs, 0.0);
    }
    EXPECT_TRUE(sawTiming) << "executed cells must report wall time";
}

TEST(Determinism, MissComponentStudyBitIdenticalAcrossJobs)
{
    const std::vector<Algorithm> algs = {
        Algorithm::Random, Algorithm::ShareRefs, Algorithm::LoadBal};
    for (AppId app : {AppId::Water, AppId::BarnesHut}) {
        Lab serialLab(kScale), parallelLab(kScale);
        auto serial =
            execTimeStudy(serialLab, app, algs, {.jobs = 1});
        auto wide =
            execTimeStudy(parallelLab, app, algs, {.jobs = wideJobs()});
        ASSERT_EQ(serial.size(), wide.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].alg, wide[i].alg);
            EXPECT_EQ(serial[i].compulsory, wide[i].compulsory);
            EXPECT_EQ(serial[i].intraConflict, wide[i].intraConflict);
            EXPECT_EQ(serial[i].interConflict, wide[i].interConflict);
            EXPECT_EQ(serial[i].invalidation, wide[i].invalidation);
            EXPECT_EQ(serial[i].refs, wide[i].refs);
        }
    }
}

TEST(Determinism, Table5StudyBitIdenticalAcrossJobs)
{
    Lab serialLab(kScale), parallelLab(kScale);
    auto serial = table5Study(serialLab, AppId::Water, {.jobs = 1});
    auto wide = table5Study(parallelLab, AppId::Water, {.jobs = wideJobs()});
    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].processors, wide[i].processors);
        EXPECT_EQ(serial[i].bestStatic, wide[i].bestStatic);
        EXPECT_EQ(serial[i].bestStaticVsLoadBal,
                  wide[i].bestStaticVsLoadBal);
        EXPECT_EQ(serial[i].coherenceVsLoadBal,
                  wide[i].coherenceVsLoadBal);
    }
}

/** Every data field of two sweep rows matches (wallMs aside). */
void
expectSameCell(const SweepRow &a, const SweepRow &b)
{
    EXPECT_EQ(a.memSystem, b.memSystem);
    EXPECT_EQ(a.alg, b.alg);
    EXPECT_EQ(a.point.processors, b.point.processors);
    EXPECT_EQ(a.point.contexts, b.point.contexts);
    EXPECT_EQ(a.cycles, b.cycles);
    // Exact (bitwise) double equality is the contract.
    EXPECT_EQ(a.normalizedToRandom, b.normalizedToRandom);
    EXPECT_EQ(a.loadImbalance, b.loadImbalance);
    EXPECT_EQ(a.compulsory, b.compulsory);
    EXPECT_EQ(a.intraConflict, b.intraConflict);
    EXPECT_EQ(a.interConflict, b.interConflict);
    EXPECT_EQ(a.invalidation, b.invalidation);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.netQueueingCycles, b.netQueueingCycles);
    EXPECT_EQ(a.failed, b.failed);
}

const std::vector<Algorithm> kHierarchyAlgs = {
    Algorithm::Random, Algorithm::LoadBal, Algorithm::ShareRefs};

TEST(Determinism, HierarchyStudyBitIdenticalAcrossJobs)
{
    Lab serialLab(kScale), parallelLab(kScale);
    auto serial = hierarchyStudy(serialLab, AppId::Water,
                                 kHierarchyAlgs, {.jobs = 1});
    auto wide = hierarchyStudy(parallelLab, AppId::Water,
                               kHierarchyAlgs, {.jobs = wideJobs()});
    ASSERT_EQ(serial.size(), wide.size());
    ASSERT_EQ(serial.size(), allMemSystems().size() *
                                 standardSweep(8).size() *
                                 kHierarchyAlgs.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectSameCell(serial[i], wide[i]);
}

TEST(Determinism, HierarchyFlatRowsAreTheExecTimeStudy)
{
    Lab hierarchyLab(kScale), flatLab(kScale);
    auto hierarchy = hierarchyStudy(hierarchyLab, AppId::Water,
                                    kHierarchyAlgs, {.jobs = wideJobs()});
    auto flat = execTimeStudy(flatLab, AppId::Water, kHierarchyAlgs,
                              {.jobs = wideJobs()});
    ASSERT_FALSE(flat.empty());
    ASSERT_GT(hierarchy.size(), flat.size());
    // Memory systems come in allMemSystems() order, flat-1994 first.
    for (size_t i = 0; i < flat.size(); ++i)
        expectSameCell(hierarchy[i], flat[i]);
    EXPECT_NE(hierarchy[flat.size()].memSystem, MemSystem::Flat1994);
}

TEST(Determinism, HierarchyNormalizesPerMemorySystem)
{
    Lab lab(kScale);
    auto rows = hierarchyStudy(lab, AppId::Water, kHierarchyAlgs,
                               {.jobs = wideJobs()});
    std::set<MemSystem> seen;
    for (const SweepRow &row : rows) {
        seen.insert(row.memSystem);
        ASSERT_FALSE(row.failed) << row.error;
        EXPECT_GT(row.cycles, 0u);
        if (row.alg == Algorithm::Random) {
            EXPECT_EQ(row.normalizedToRandom, 1.0)
                << memSystemName(row.memSystem) << " "
                << row.point.label();
        }
        if (row.memSystem == MemSystem::Flat1994) {
            EXPECT_EQ(row.l2Hits, 0u);
            EXPECT_EQ(row.l2Misses, 0u);
            EXPECT_EQ(row.netQueueingCycles, 0u);
        } else {
            EXPECT_GT(row.l2Hits + row.l2Misses, 0u)
                << memSystemName(row.memSystem);
        }
    }
    EXPECT_EQ(seen.size(), allMemSystems().size());
}

TEST(Determinism, BatchedHierarchyStudyMatchesUnbatched)
{
    // The lockstep path: cells of one app run as lanes of one
    // sim::BatchMachine over the app's shared TraceSet. Four cells
    // per (memory system, point) against three lanes per batch, so
    // the lanes of a batch differ in configuration, not only in
    // placement.
    const std::vector<Algorithm> algs = {
        Algorithm::Random, Algorithm::LoadBal, Algorithm::ShareRefs,
        Algorithm::MinInvs};
    Lab serialLab(kScale);
    auto serial = hierarchyStudy(serialLab, AppId::Water, algs,
                                 {.jobs = 1, .batch = 1});

    obs::setMetricsEnabled(true);
    obs::Registry::instance().resetValues();
    Lab batchedLab(kScale);
    auto batched = hierarchyStudy(batchedLab, AppId::Water, algs,
                                  {.jobs = 2, .batch = 3});
    const int64_t widestBatch = obs::batchLanes().max();
    obs::setMetricsEnabled(false);
    EXPECT_EQ(widestBatch, 3) << "the sweep must run batched";
    ASSERT_EQ(batched.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectSameCell(batched[i], serial[i]);

    // A fault in one algorithm's cells fails those lanes alone.
    Lab faultLab(kScale);
    std::vector<JobFailure> failures;
    SweepOptions options{.jobs = 2, .batch = 3};
    options.failures = &failures;
    options.faultInjector = [](const RunJob &job) {
        if (job.alg == Algorithm::ShareRefs)
            util::fatal("injected lane failure");
    };
    auto faulted = hierarchyStudy(faultLab, AppId::Water, algs, options);
    ASSERT_EQ(faulted.size(), serial.size());
    size_t failedCells = 0;
    for (size_t i = 0; i < faulted.size(); ++i) {
        if (faulted[i].alg != Algorithm::ShareRefs) {
            expectSameCell(faulted[i], serial[i]);
            continue;
        }
        ++failedCells;
        EXPECT_TRUE(faulted[i].failed);
        EXPECT_NE(faulted[i].error.find("injected"), std::string::npos)
            << faulted[i].error;
    }
    EXPECT_GT(failedCells, 0u);
    EXPECT_EQ(failures.size(), failedCells);
}

// --------------------------------------------------------- fault isolation

TEST(FaultIsolation, PoisonJobDegradesWithoutPollutingOthers)
{
    // contexts == 0 fails SimConfig::validate with a FatalError — the
    // canonical "one bad cell in a big sweep" case.
    const RunJob poison{AppId::Water, Algorithm::LoadBal, {4, 0},
                        false};
    const std::vector<RunJob> good = {
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::ShareRefs, {4, 2}, false},
        {AppId::Water, Algorithm::LoadBal, {8, 1}, false},
    };
    std::vector<RunJob> jobs = {good[0], poison, good[1], good[2]};

    Lab cleanLab(kScale);
    auto clean = ParallelRunner(cleanLab, 1).runAll(good);

    for (unsigned width : {1u, wideJobs()}) {
        Lab lab(kScale);
        SweepOptions options;
        options.jobs = width;
        SweepStats stats;
        options.statsOut = &stats;
        auto outcomes =
            ParallelRunner(lab, options).runAllOutcomes(jobs);
        ASSERT_EQ(outcomes.size(), jobs.size());

        EXPECT_FALSE(outcomes[1].ok());
        EXPECT_NE(outcomes[1].error().find("fatal:"),
                  std::string::npos)
            << outcomes[1].error();
        EXPECT_EQ(stats.failed, 1u);
        EXPECT_EQ(stats.executed, jobs.size());

        // Every healthy cell is bit-identical to the clean run.
        const size_t cleanIdx[] = {0, 2, 3};
        for (size_t k = 0; k < 3; ++k) {
            const auto &oc = outcomes[cleanIdx[k]];
            ASSERT_TRUE(oc.ok());
            EXPECT_EQ(oc.value().executionTime,
                      clean[k].executionTime);
            EXPECT_EQ(oc.value().placement.assignment(),
                      clean[k].placement.assignment());
            EXPECT_EQ(oc.value().loadImbalance,
                      clean[k].loadImbalance);
        }
    }
}

TEST(FaultIsolation, StrictRunAllThrowsNamingTheJob)
{
    Lab lab(kScale);
    const RunJob poison{AppId::Water, Algorithm::LoadBal, {4, 0},
                        false};
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::Random, {2, 4}, false}, poison};
    try {
        ParallelRunner(lab, wideJobs()).runAll(jobs);
        FAIL() << "strict runAll accepted a poisoned sweep";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(describeJob(poison)),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultIsolation, PanicStillFailsTheWholeSweepFast)
{
    Lab lab(kScale);
    SweepOptions options;
    options.jobs = wideJobs();
    options.faultInjector = [](const RunJob &job) {
        if (job.alg == Algorithm::ShareRefs)
            util::panic("injected library bug");
    };
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::ShareRefs, {4, 2}, false},
    };
    EXPECT_THROW(ParallelRunner(lab, options).runAllOutcomes(jobs),
                 util::PanicError);
}

TEST(FaultIsolation, DegradedStudyMatchesCleanStudyElsewhere)
{
    const std::vector<Algorithm> algs = {
        Algorithm::Random, Algorithm::LoadBal, Algorithm::ShareRefs};

    Lab cleanLab(kScale);
    auto clean = execTimeStudy(cleanLab, AppId::Water, algs,
                               {.jobs = 1});

    Lab lab(kScale);
    std::vector<JobFailure> failures;
    SweepOptions options;
    options.jobs = wideJobs();
    options.failures = &failures;
    options.faultInjector = [](const RunJob &job) {
        if (job.alg == Algorithm::ShareRefs &&
            job.point.processors == 4)
            util::fatal("injected cell failure");
    };
    auto degraded = execTimeStudy(lab, AppId::Water, algs, options);

    ASSERT_EQ(degraded.size(), clean.size());
    size_t failedCells = 0;
    for (size_t i = 0; i < degraded.size(); ++i) {
        if (degraded[i].failed) {
            ++failedCells;
            EXPECT_EQ(degraded[i].alg, Algorithm::ShareRefs);
            EXPECT_EQ(degraded[i].point.processors, 4u);
            EXPECT_NE(degraded[i].error.find("injected"),
                      std::string::npos)
                << degraded[i].error;
            continue;
        }
        EXPECT_EQ(degraded[i].cycles, clean[i].cycles);
        EXPECT_EQ(degraded[i].normalizedToRandom,
                  clean[i].normalizedToRandom);
        EXPECT_EQ(degraded[i].loadImbalance, clean[i].loadImbalance);
    }
    EXPECT_GT(failedCells, 0u);
    EXPECT_EQ(failures.size(), failedCells);
    for (const auto &f : failures)
        EXPECT_NE(f.describe().find("injected"), std::string::npos);
}

TEST(FaultIsolation, StrictStudyStillThrowsOnInjectedFailure)
{
    Lab lab(kScale);
    SweepOptions options;
    options.jobs = wideJobs();
    options.faultInjector = [](const RunJob &job) {
        if (job.alg == Algorithm::LoadBal)
            util::fatal("injected cell failure");
    };
    EXPECT_THROW(execTimeStudy(lab, AppId::Water,
                               {Algorithm::Random,
                                Algorithm::LoadBal},
                               options),
                 util::FatalError);
}

TEST(FaultIsolation, WatchdogFlagsSlowCells)
{
    Lab lab(kScale);
    SweepStats stats;
    SweepOptions options;
    options.jobs = 2;
    options.statsOut = &stats;
    options.jobDeadline = std::chrono::milliseconds(5);
    options.faultInjector = [](const RunJob &job) {
        if (job.alg == Algorithm::ShareRefs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(40));
    };
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::ShareRefs, {4, 2}, false},
    };
    auto outcomes = ParallelRunner(lab, options).runAllOutcomes(jobs);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_GE(stats.watchdogFlagged, 1u);
}

TEST(Determinism, Table4StudyMatchesSerialRows)
{
    Lab serialLab(kScale), parallelLab(kScale);
    const std::vector<AppId> apps = {AppId::Water, AppId::BarnesHut};
    auto wide = table4Study(parallelLab, apps, wideJobs());
    ASSERT_EQ(wide.size(), apps.size());
    for (size_t i = 0; i < apps.size(); ++i) {
        auto expect = table4Row(serialLab, apps[i]);
        EXPECT_EQ(wide[i].app, expect.app);
        EXPECT_EQ(wide[i].staticTotal, expect.staticTotal);
        EXPECT_EQ(wide[i].dynamicTotal, expect.dynamicTotal);
        EXPECT_EQ(wide[i].staticOverDynamic,
                  expect.staticOverDynamic);
        EXPECT_EQ(wide[i].dynamicPairDevPct,
                  expect.dynamicPairDevPct);
    }
}

// ------------------------------------------------------------ cancellation

TEST(Cancellation, PreCancelledTokenSkipsEveryCell)
{
    Lab lab(kScale);
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::LoadBal, {4, 2}, false},
    };

    util::CancelToken token;
    token.requestCancel();
    SweepStats stats;
    SweepOptions options;
    options.jobs = 1;
    options.cancel = &token;
    options.statsOut = &stats;
    auto outcomes = ParallelRunner(lab, options).runAllOutcomes(jobs);

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (const auto &outcome : outcomes) {
        ASSERT_FALSE(outcome.ok());
        EXPECT_NE(outcome.error().find("cancelled"),
                  std::string::npos);
    }
    EXPECT_EQ(stats.cancelled, jobs.size());
    EXPECT_EQ(stats.executed, 0u);
    // Cancelled cells are not *failures* — nothing actually broke.
    EXPECT_EQ(stats.failed, 0u);
}

TEST(Cancellation, OnCellSeesCancelledCellsWithTheTokensReason)
{
    // A pre-cancelled token still replays journaled cells; every
    // other cell settles once, with the token's reason and 0.0 ms.
    const RunJob replayed{AppId::Water, Algorithm::Random, {2, 4}, false};
    const RunJob skipped{AppId::Water, Algorithm::LoadBal, {4, 2}, false};
    const std::vector<RunJob> jobs = {skipped, replayed, skipped};
    const std::string path = testing::TempDir() + "/on_cell_cancel.tspc";

    for (unsigned width : {1u, wideJobs()}) {
        SCOPED_TRACE(testing::Message() << "jobs " << width);
        std::remove(path.c_str());
        Lab lab(kScale);
        Checkpoint cp(path, kScale);
        cp.record(replayed,
                  lab.run(replayed.app, replayed.alg, replayed.point));

        util::CancelToken token;
        token.requestCancel("test: cancelled before the sweep began");
        CellLog log(jobs.size());
        SweepStats stats;
        SweepOptions options;
        options.jobs = width;
        options.checkpoint = &cp;
        options.statsOut = &stats;
        options.cancel = &token;
        options.onCell = log.hook();
        auto outcomes = ParallelRunner(lab, options).runAllOutcomes(jobs);
        EXPECT_EQ(stats.fromCheckpoint, 1u);
        EXPECT_EQ(stats.cancelled, 1u);

        EXPECT_FALSE(log.overlapped);
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(log.calls[i].count, 1u) << "input " << i;
            EXPECT_EQ(log.calls[i].wallMs, 0.0) << "input " << i;
        }
        EXPECT_TRUE(log.calls[1].ok);
        for (size_t i : {0u, 2u}) {
            EXPECT_FALSE(log.calls[i].ok);
            EXPECT_EQ(log.calls[i].error,
                      "test: cancelled before the sweep began");
            ASSERT_FALSE(outcomes[i].ok());
            EXPECT_EQ(outcomes[i].error(), log.calls[i].error);
        }
    }
    std::remove(path.c_str());
}

TEST(Cancellation, MidSweepCancelIsCleanlyResumable)
{
    std::string path =
        testing::TempDir() + "/cancel_resume.tspc";
    std::remove(path.c_str());
    std::vector<RunJob> jobs = {
        {AppId::Water, Algorithm::Random, {2, 4}, false},
        {AppId::Water, Algorithm::LoadBal, {2, 4}, false},
        {AppId::Water, Algorithm::ShareRefs, {4, 2}, false},
        {AppId::Water, Algorithm::MinShare, {4, 2}, false},
    };

    Lab baselineLab(kScale);
    auto baseline = ParallelRunner(baselineLab, 1).runAll(jobs);

    // The token trips once the second cell has settled, between
    // cells, as the daemon's deadline check does: the settled cells
    // are journaled; the remaining cells are skipped.
    util::CancelToken token;
    size_t settled = 0;
    {
        Lab lab(kScale);
        Checkpoint cp(path, kScale);
        SweepStats stats;
        SweepOptions options;
        options.jobs = 1;  // deterministic input-order execution
        options.cancel = &token;
        options.checkpoint = &cp;
        options.statsOut = &stats;
        options.onCell = [&](size_t, const Outcome<RunResult> &,
                             double) {
            if (++settled == 2)
                token.requestCancel();
        };
        auto outcomes =
            ParallelRunner(lab, options).runAllOutcomes(jobs);

        EXPECT_TRUE(outcomes[0].ok());
        EXPECT_TRUE(outcomes[1].ok());
        EXPECT_FALSE(outcomes[2].ok());
        EXPECT_FALSE(outcomes[3].ok());
        EXPECT_EQ(stats.executed, 2u);
        EXPECT_EQ(stats.cancelled, 2u);
        EXPECT_EQ(stats.failed, 0u);
        EXPECT_EQ(cp.size(), 2u);
    }

    // Resume without the token: journaled cells replay, skipped cells
    // run now, and the whole sweep is bit-identical to the baseline.
    Lab lab(kScale);
    Checkpoint cp(path, kScale);
    SweepStats stats;
    SweepOptions options;
    options.jobs = 1;
    options.checkpoint = &cp;
    options.statsOut = &stats;
    auto resumed = ParallelRunner(lab, options).runAll(jobs);
    EXPECT_EQ(stats.fromCheckpoint, 2u);
    EXPECT_EQ(stats.executed, 2u);
    ASSERT_EQ(resumed.size(), baseline.size());
    for (size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_EQ(resumed[i].executionTime,
                  baseline[i].executionTime);
        EXPECT_EQ(resumed[i].stats.totalMemRefs(),
                  baseline[i].stats.totalMemRefs());
        EXPECT_EQ(resumed[i].stats.totalHits(),
                  baseline[i].stats.totalHits());
        EXPECT_EQ(resumed[i].placement.assignment(),
                  baseline[i].placement.assignment());
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tsp::experiment
