/**
 * @file
 * One simulation per distinct machine: ParallelRunner groups cells by
 * (application, SimConfig, placement) and simulates each group once.
 * These tests pin that the sharing is exact (every hierarchy row of
 * every application equals its own Lab::run, at any width and lane
 * count), how much it saves on the paper's sweeps, and that a shared
 * simulation keeps the per-cell contracts: fault isolation, one
 * journal record per cell, replay, cancellation and journal order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/run_codec.h"
#include "experiment/studies.h"
#include "util/error.h"
#include "util/parallel_for.h"
#include "workload/suite.h"

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

/** Every byte a RunResult journals: placement, imbalance, SimStats. */
std::string
encoded(const RunResult &result)
{
    codec::ByteWriter w;
    codec::writeRunResult(w, result);
    return w.bytes();
}

/** The widths and lane counts a shared simulation must not notice. */
std::vector<SweepOptions>
engineShapes()
{
    return {SweepOptions{.jobs = 1, .batch = 1},
            SweepOptions{.jobs = 1, .batch = 3},
            SweepOptions{.jobs = wideJobs(), .batch = 1},
            SweepOptions{.jobs = wideJobs(), .batch = 3}};
}

// ---------------------------------------------------- exact sharing

TEST(SweepSharing, EveryHierarchyRowEqualsItsOwnLabRun)
{
    const std::vector<Algorithm> &algs = placement::figureAlgorithms();
    for (AppId app : workload::allApps()) {
        SCOPED_TRACE(workload::appName(app));
        Lab refLab(kScale);
        const auto points = standardSweep(
            static_cast<uint32_t>(refLab.analysis(app).threadCount()));

        // The study's fan-out (studies.cc placementSweep): per (memory
        // system, point) the RANDOM baseline, then every other
        // algorithm.
        std::vector<RunJob> fanout;
        for (MemSystem ms : allMemSystems()) {
            for (const MachinePoint &point : points) {
                fanout.push_back(
                    {app, Algorithm::Random, point, false, ms});
                for (Algorithm alg : algs) {
                    if (alg != Algorithm::Random)
                        fanout.push_back({app, alg, point, false, ms});
                }
            }
        }
        std::vector<RunResult> expect(fanout.size());
        util::parallelFor(wideJobs(), fanout.size(), [&](size_t i) {
            const RunJob &job = fanout[i];
            expect[i] = refLab.run(job.app, job.alg, job.point,
                                   job.infiniteCache, job.memSystem);
        });

        for (SweepOptions options : engineShapes()) {
            SCOPED_TRACE(testing::Message()
                         << "jobs " << options.jobs << ", batch "
                         << options.batch);
            std::vector<std::string> seen(fanout.size());
            options.onCell = [&](size_t i,
                                 const Outcome<RunResult> &outcome,
                                 double) {
                ASSERT_TRUE(outcome.ok()) << outcome.error();
                seen[i] = encoded(outcome.value());
            };
            SweepStats stats;
            options.statsOut = &stats;
            Lab lab(kScale);
            const auto rows = hierarchyStudy(lab, app, algs, options);
            EXPECT_EQ(stats.unique, fanout.size());
            EXPECT_LT(stats.simulated, fanout.size());

            for (size_t i = 0; i < fanout.size(); ++i) {
                EXPECT_EQ(seen[i], encoded(expect[i]))
                    << describeJob(fanout[i]);
            }
            ASSERT_EQ(rows.size(),
                      allMemSystems().size() * points.size() *
                          algs.size());
            for (const SweepRow &row : rows) {
                const auto at = std::find_if(
                    fanout.begin(), fanout.end(), [&](const RunJob &j) {
                        return j.alg == row.alg &&
                               j.memSystem == row.memSystem &&
                               j.point.processors ==
                                   row.point.processors;
                    });
                ASSERT_NE(at, fanout.end());
                const RunResult &cell = expect[at - fanout.begin()];
                EXPECT_EQ(row.cycles, cell.executionTime);
                EXPECT_EQ(row.loadImbalance, cell.loadImbalance);
                EXPECT_EQ(row.totalMisses(),
                          cell.missSummary().totalMisses());
            }
        }
    }
}

// -------------------------------------------------- what it saves

TEST(SweepSharing, FigureSweepsSimulateOncePerDistinctMachine)
{
    struct Case
    {
        AppId app;
        size_t cells;
        size_t simulations;
    };
    for (const Case &c : {Case{AppId::FFT, 40, 25},
                          Case{AppId::Water, 30, 13}}) {
        SCOPED_TRACE(workload::appName(c.app));
        Lab lab(kScale);
        SweepStats stats;
        const auto rows =
            execTimeStudy(lab, c.app, placement::figureAlgorithms(),
                          {.jobs = wideJobs(), .statsOut = &stats});
        EXPECT_EQ(rows.size(), c.cells);
        EXPECT_EQ(stats.unique, c.cells);
        EXPECT_EQ(stats.executed, c.cells);
        EXPECT_EQ(stats.simulated, c.simulations);
    }
}

TEST(SweepSharing, HierarchyPlacesOncePerAlgorithmAndProcessorCount)
{
    Lab lab(kScale);
    SweepStats stats;
    const auto rows =
        hierarchyStudy(lab, AppId::Water, placement::figureAlgorithms(),
                       {.jobs = wideJobs(), .statsOut = &stats});
    EXPECT_EQ(rows.size(), 120u);
    EXPECT_EQ(stats.unique, 120u);
    EXPECT_EQ(stats.placements, 30u);
    EXPECT_EQ(stats.simulated, 4 * 13u);
}

TEST(SweepSharing, BarnesHutAtFullScaleEightProcessors)
{
    // The paper's Barnes-Hut point with one thread per processor: ten
    // algorithms, three distinct placements.
    Lab lab(1);
    std::vector<RunJob> jobs;
    for (Algorithm alg : placement::figureAlgorithms())
        jobs.push_back({AppId::BarnesHut, alg, {8, 1}, false});
    SweepStats stats;
    ParallelRunner(lab, SweepOptions{.jobs = wideJobs(),
                                     .statsOut = &stats})
        .runAll(jobs);
    EXPECT_EQ(stats.unique, 10u);
    EXPECT_EQ(stats.simulated, 3u);
}

// ----------------------------------------------- group semantics

/**
 * Two cells of Water on one machine (different algorithms, the same
 * placement) and a third cell on another machine.
 */
struct SharedCells
{
    RunJob a, b, other;
};

SharedCells
sharedCells(Lab &lab)
{
    const auto &algs = placement::figureAlgorithms();
    const auto points = standardSweep(
        static_cast<uint32_t>(lab.analysis(AppId::Water).threadCount()));
    for (const MachinePoint &point : points) {
        for (size_t i = 0; i < algs.size(); ++i) {
            for (size_t j = i + 1; j < algs.size(); ++j) {
                if (lab.placementFor(AppId::Water, algs[i],
                                     point.processors)
                        .assignment() !=
                    lab.placementFor(AppId::Water, algs[j],
                                     point.processors)
                        .assignment())
                    continue;
                const MachinePoint &elsewhere =
                    point.processors == points.front().processors
                        ? points.back()
                        : points.front();
                return {{AppId::Water, algs[i], point, false},
                        {AppId::Water, algs[j], point, false},
                        {AppId::Water, algs[i], elsewhere, false}};
            }
        }
    }
    util::fatal("no two Water algorithms share a placement");
}

TEST(SweepSharing, FaultInjectedMemberFailsAlone)
{
    Lab refLab(kScale);
    const SharedCells cells = sharedCells(refLab);
    const std::vector<RunJob> jobs = {cells.a, cells.b, cells.other};
    std::vector<std::string> expect;
    for (const RunJob &job : jobs)
        expect.push_back(encoded(refLab.run(job.app, job.alg, job.point)));

    // The victim is the group's first member, then its second.
    for (size_t victim : {0u, 1u}) {
        for (SweepOptions options : engineShapes()) {
            SCOPED_TRACE(testing::Message()
                         << "victim " << victim << ", jobs "
                         << options.jobs << ", batch " << options.batch);
            Lab lab(kScale);
            SweepStats stats;
            options.statsOut = &stats;
            options.faultInjector = [&](const RunJob &job) {
                if (job.alg == jobs[victim].alg &&
                    job.point.processors ==
                        jobs[victim].point.processors)
                    util::fatal("injected member failure");
            };
            const auto outcomes =
                ParallelRunner(lab, options).runAllOutcomes(jobs);
            for (size_t i = 0; i < jobs.size(); ++i) {
                if (i == victim) {
                    ASSERT_FALSE(outcomes[i].ok());
                    EXPECT_NE(outcomes[i].error().find("injected"),
                              std::string::npos);
                    continue;
                }
                ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error();
                EXPECT_EQ(encoded(outcomes[i].value()), expect[i]);
            }
            EXPECT_EQ(stats.executed, 3u);
            EXPECT_EQ(stats.failed, 1u);
            EXPECT_EQ(stats.simulated, 2u);
        }
    }
}

/** (algorithm, processors) of every record in the TSPS file at
 *  @p path, in append order. */
std::vector<std::pair<uint32_t, uint32_t>>
journalOrder(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    codec::ByteReader r(bytes);
    r.u32();  // magic
    r.u32();  // version
    r.u32();  // scale
    std::vector<std::pair<uint32_t, uint32_t>> order;
    while (!r.done()) {
        const uint32_t payload = r.u32();
        r.u32();  // crc
        std::string record(payload, '\0');
        r.raw(record.data(), payload);
        codec::ByteReader rec(record);
        rec.u64();  // key digest
        rec.u32();  // key bytes
        rec.u32();  // scale
        rec.u32();  // app
        const uint32_t alg = rec.u32();
        order.emplace_back(alg, rec.u32());
    }
    return order;
}

TEST(SweepSharing, EveryMemberIsJournaledAndReplayed)
{
    const std::string path = testing::TempDir() + "/sharing.tsps";
    std::remove(path.c_str());
    Lab refLab(kScale);
    const SharedCells cells = sharedCells(refLab);
    // Input order a, other, b; the shared machine {a, b} comes first.
    const std::vector<RunJob> jobs = {cells.a, cells.other, cells.b};

    std::vector<Outcome<RunResult>> first;
    {
        Lab lab(kScale);
        Checkpoint cp(path, kScale);
        SweepStats stats;
        first = ParallelRunner(lab, SweepOptions{.jobs = 1,
                                                 .checkpoint = &cp,
                                                 .statsOut = &stats})
                    .runAllOutcomes(jobs);
        EXPECT_EQ(stats.simulated, 2u);
        EXPECT_EQ(cp.size(), 3u);
        for (size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(first[i].ok()) << first[i].error();
            const auto journaled = cp.lookup(jobs[i]);
            ASSERT_TRUE(journaled.has_value()) << describeJob(jobs[i]);
            EXPECT_EQ(encoded(*journaled), encoded(first[i].value()));
        }
    }
    // With one thread, records come out in group order.
    const auto key = [](const RunJob &job) {
        return std::make_pair(static_cast<uint32_t>(job.alg),
                              job.point.processors);
    };
    EXPECT_EQ(journalOrder(path),
              (std::vector<std::pair<uint32_t, uint32_t>>{
                  key(cells.a), key(cells.b), key(cells.other)}));

    // A resumed sweep replays every member and simulates nothing.
    Lab lab(kScale);
    Checkpoint cp(path, kScale);
    SweepStats stats;
    const auto resumed =
        ParallelRunner(lab, SweepOptions{.jobs = wideJobs(),
                                         .checkpoint = &cp,
                                         .statsOut = &stats})
            .runAllOutcomes(jobs);
    EXPECT_EQ(stats.fromCheckpoint, 3u);
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.placements, 0u);
    EXPECT_EQ(stats.simulated, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(resumed[i].ok());
        EXPECT_EQ(encoded(resumed[i].value()), encoded(first[i].value()));
    }
    std::remove(path.c_str());
}

TEST(SweepSharing, CancelledGroupCancelsEveryMember)
{
    Lab lab(kScale);
    const SharedCells cells = sharedCells(lab);
    const std::vector<RunJob> jobs = {cells.other, cells.a, cells.b};

    // The token trips once the first machine has settled, so the
    // shared machine never starts.
    util::CancelToken token;
    SweepStats stats;
    const auto outcomes =
        ParallelRunner(
            lab, SweepOptions{.jobs = 1,
                              .statsOut = &stats,
                              .cancel = &token,
                              .onCell =
                                  [&](size_t, const Outcome<RunResult> &,
                                      double) {
                                      token.requestCancel(
                                          "test: cancelled");
                                  }})
            .runAllOutcomes(jobs);
    EXPECT_TRUE(outcomes[0].ok());
    for (size_t i : {1u, 2u}) {
        ASSERT_FALSE(outcomes[i].ok());
        EXPECT_EQ(outcomes[i].error(), "test: cancelled");
    }
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.simulated, 1u);
}

} // namespace
} // namespace tsp::experiment
