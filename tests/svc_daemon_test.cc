/**
 * @file
 * The resident experiment daemon (svc::Daemon): admission control and
 * deterministic queue-full shedding, priority ordering, store-backed
 * dedup, sweep metrics for daemon cells, queue-expiry, mid-run and
 * mid-preparation deadline cancellation (on a fake clock),
 * request-boundary fault containment, and graceful drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "obs/metrics.h"
#include "svc/daemon.h"
#include "util/error.h"

namespace tsp::svc {
namespace {

using experiment::MachinePoint;
using experiment::RunJob;
using namespace std::chrono_literals;

constexpr uint32_t kScale = 64;

RunJob
jobAt(placement::Algorithm alg, uint32_t processors = 4,
      bool infinite = false)
{
    return {workload::AppId::Water, alg,
            MachinePoint{processors, 4}, infinite};
}

StudyRequest
study(std::vector<RunJob> jobs, int priority = 0,
      std::chrono::milliseconds deadline = 0ms)
{
    StudyRequest request;
    request.jobs = std::move(jobs);
    request.priority = priority;
    request.deadline = deadline;
    return request;
}

Daemon::Config
smallConfig()
{
    Daemon::Config config;
    config.scale = kScale;
    config.workers = 1;
    config.queueCapacity = 2;
    return config;
}

TEST(Daemon, AnswersARequestAndDedupsWithinTheStudy)
{
    Daemon::Config config = smallConfig();
    Daemon daemon(config);

    RunJob job = jobAt(placement::Algorithm::LoadBal);
    SubmitResult submitted = daemon.submit(study({job, job}));
    ASSERT_TRUE(submitted.admitted()) << submitted.rejection;

    StudyResponse response = submitted.accepted->get();
    EXPECT_EQ(response.status, StudyStatus::Completed);
    ASSERT_EQ(response.outcomes.size(), 2u);
    for (const auto &outcome : response.outcomes) {
        ASSERT_TRUE(outcome.ok()) << outcome.error();
        EXPECT_GT(outcome.value().executionTime, 0u);
    }
    // Identical cells within one study answer identically.
    EXPECT_EQ(response.outcomes[0].value().executionTime,
              response.outcomes[1].value().executionTime);
    EXPECT_EQ(response.executed, 1u);
    EXPECT_GE(response.totalMillis, response.queueMillis);

    Daemon::Counters counters = daemon.counters();
    EXPECT_EQ(counters.admitted, 1u);
    EXPECT_EQ(counters.shed, 0u);
    daemon.drain();
    EXPECT_EQ(daemon.counters().completed, 1u);
}

TEST(Daemon, EmptyStudyIsShedWithAReason)
{
    Daemon daemon(smallConfig());
    SubmitResult submitted = daemon.submit(study({}));
    EXPECT_FALSE(submitted.admitted());
    EXPECT_NE(submitted.rejection.find("empty study"),
              std::string::npos)
        << submitted.rejection;
    EXPECT_EQ(daemon.counters().shed, 1u);
}

TEST(Daemon, QueueFullShedsDeterministicallyAndResumeCompletes)
{
    Daemon::Config config = smallConfig();
    config.startPaused = true;  // fill the queue without racing workers
    Daemon daemon(config);

    RunJob job = jobAt(placement::Algorithm::LoadBal);
    std::vector<std::future<StudyResponse>> admitted;
    unsigned sheds = 0;
    for (int i = 0; i < 5; ++i) {
        SubmitResult submitted = daemon.submit(study({job}));
        if (submitted.admitted()) {
            admitted.push_back(std::move(*submitted.accepted));
        } else {
            ++sheds;
            EXPECT_NE(submitted.rejection.find("queue full"),
                      std::string::npos)
                << submitted.rejection;
        }
    }
    // Paused daemon, capacity 2: exactly the first two are admitted.
    EXPECT_EQ(admitted.size(), 2u);
    EXPECT_EQ(sheds, 3u);
    EXPECT_EQ(daemon.queueDepth(), 2u);
    EXPECT_EQ(daemon.counters().admitted, 2u);
    EXPECT_EQ(daemon.counters().shed, 3u);

    daemon.resume();
    for (auto &future : admitted)
        EXPECT_EQ(future.get().status, StudyStatus::Completed);
    daemon.drain();
    EXPECT_EQ(daemon.counters().completed, 2u);
}

TEST(Daemon, HigherPriorityRunsFirst)
{
    Daemon::Config config = smallConfig();
    config.queueCapacity = 8;
    config.startPaused = true;
    Daemon daemon(config);

    // Queue low priority first, then high; the single worker must
    // answer the high-priority request with the shorter queue wait
    // profile — observable via completion order of the futures.
    auto low = daemon.submit(
        study({jobAt(placement::Algorithm::LoadBal)}, 0));
    auto high = daemon.submit(
        study({jobAt(placement::Algorithm::ShareRefs)}, 2));
    ASSERT_TRUE(low.admitted());
    ASSERT_TRUE(high.admitted());

    daemon.resume();
    StudyResponse highResponse = high.accepted->get();
    EXPECT_EQ(highResponse.status, StudyStatus::Completed);
    // When the high-priority answer lands, the low one may still be
    // queued or in flight — but never answered before it started.
    StudyResponse lowResponse = low.accepted->get();
    EXPECT_EQ(lowResponse.status, StudyStatus::Completed);
    EXPECT_GE(lowResponse.queueMillis, highResponse.queueMillis);
    daemon.drain();
}

TEST(Daemon, StoreDedupServesRepeatStudiesAsCacheHits)
{
    std::string path = testing::TempDir() + "/daemon_store.tsps";
    std::remove(path.c_str());
    Daemon::Config config = smallConfig();
    config.storePath = path;
    Daemon daemon(config);

    StudyRequest request = study({jobAt(placement::Algorithm::LoadBal),
                                  jobAt(placement::Algorithm::ShareRefs)});
    auto first = daemon.submit(request);
    ASSERT_TRUE(first.admitted());
    StudyResponse firstResponse = first.accepted->get();
    EXPECT_EQ(firstResponse.status, StudyStatus::Completed);
    EXPECT_EQ(firstResponse.executed, 2u);
    EXPECT_EQ(firstResponse.cacheHits, 0u);

    auto second = daemon.submit(request);
    ASSERT_TRUE(second.admitted());
    StudyResponse secondResponse = second.accepted->get();
    EXPECT_EQ(secondResponse.status, StudyStatus::Completed);
    EXPECT_EQ(secondResponse.executed, 0u);
    EXPECT_EQ(secondResponse.cacheHits, 2u);

    // Bit-identical paper numbers either way.
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(secondResponse.outcomes[i].value().executionTime,
                  firstResponse.outcomes[i].value().executionTime);
    }
    ASSERT_NE(daemon.store(), nullptr);
    EXPECT_EQ(daemon.store()->size(), 2u);
    daemon.drain();
    std::remove(path.c_str());
}

TEST(Daemon, StoreBackedCellsReportInTheSweepMetrics)
{
    // Daemon cells run through the sweep engine, so they count in
    // sweep.cells_executed and, served again, in
    // sweep.cells_from_checkpoint.
    std::string path = testing::TempDir() + "/daemon_metrics.tsps";
    std::remove(path.c_str());
    Daemon::Config config = smallConfig();
    config.storePath = path;
    Daemon daemon(config);
    StudyRequest request = study({jobAt(placement::Algorithm::LoadBal),
                                  jobAt(placement::Algorithm::ShareRefs)});

    obs::setMetricsEnabled(true);
    const uint64_t executed0 = obs::sweepCellsExecuted().value();
    const uint64_t replayed0 = obs::sweepCellsFromCheckpoint().value();
    auto first = daemon.submit(request);
    ASSERT_TRUE(first.admitted());
    EXPECT_EQ(first.accepted->get().executed, 2u);
    const uint64_t executed1 = obs::sweepCellsExecuted().value();
    const uint64_t replayed1 = obs::sweepCellsFromCheckpoint().value();

    auto again = daemon.submit(request);
    ASSERT_TRUE(again.admitted());
    EXPECT_EQ(again.accepted->get().cacheHits, 2u);
    const uint64_t executed2 = obs::sweepCellsExecuted().value();
    const uint64_t replayed2 = obs::sweepCellsFromCheckpoint().value();
    obs::setMetricsEnabled(false);

    EXPECT_EQ(executed1 - executed0, 2u);
    EXPECT_EQ(replayed1 - replayed0, 0u);
    EXPECT_EQ(executed2 - executed1, 0u);
    EXPECT_EQ(replayed2 - replayed1, 2u);
    daemon.drain();
    std::remove(path.c_str());
}

TEST(Daemon, DeadlineExpiredWhileQueuedAnswersExpired)
{
    Daemon::Config config = smallConfig();
    config.startPaused = true;  // hold the request in the queue
    Daemon daemon(config);

    auto submitted = daemon.submit(
        study({jobAt(placement::Algorithm::LoadBal)}, 0, 1ms));
    ASSERT_TRUE(submitted.admitted());
    std::this_thread::sleep_for(20ms);
    daemon.resume();

    StudyResponse response = submitted.accepted->get();
    EXPECT_EQ(response.status, StudyStatus::Expired);
    EXPECT_NE(response.error.find("expired"), std::string::npos);
    ASSERT_EQ(response.outcomes.size(), 1u);
    EXPECT_FALSE(response.outcomes[0].ok());
    EXPECT_EQ(response.executed, 0u);
    EXPECT_EQ(daemon.counters().expired, 1u);
    daemon.drain();
}

/** A fake clock that reads T0 @p atT0 times, then 20 ms past it. */
std::function<Daemon::Clock::time_point()>
jumpAfter(std::atomic<int> &reads, int atT0)
{
    const auto t0 = Daemon::Clock::time_point(0ms);
    return [&reads, atT0, t0] {
        return ++reads <= atT0 ? t0 : t0 + 20ms;
    };
}

TEST(Daemon, MidRunDeadlineCancelsTailCellsDeterministically)
{
    // Fake clock, read at the runner's poll points: admission, the
    // start of execution, the three cells' preparation polls and the
    // poll before the first simulation read T0; the poll before the
    // second simulation is past the 10 ms deadline. Cell 1 runs, cells
    // 2 and 3 are answered as cancelled, with no real-time dependence.
    Daemon::Config config = smallConfig();
    std::atomic<int> reads{0};
    config.clock = jumpAfter(reads, 6);
    Daemon daemon(config);

    auto submitted = daemon.submit(
        study({jobAt(placement::Algorithm::LoadBal),
               jobAt(placement::Algorithm::ShareRefs),
               jobAt(placement::Algorithm::LoadBal, 8)},
              0, 10ms));
    ASSERT_TRUE(submitted.admitted());

    StudyResponse response = submitted.accepted->get();
    EXPECT_EQ(response.status, StudyStatus::DeadlineExceeded);
    ASSERT_EQ(response.outcomes.size(), 3u);
    EXPECT_TRUE(response.outcomes[0].ok());
    EXPECT_FALSE(response.outcomes[1].ok());
    EXPECT_FALSE(response.outcomes[2].ok());
    EXPECT_NE(response.outcomes[1].error().find("deadline"),
              std::string::npos)
        << response.outcomes[1].error();
    EXPECT_EQ(response.cancelledCells, 2u);
    EXPECT_EQ(response.executed, 1u);
    daemon.drain();
}

TEST(Daemon, DeadlineDuringPreparationRunsNoSimulation)
{
    // The deadline passes at the second cell's preparation poll, after
    // the first cell was placed: the token trips itself there, so no
    // cell reaches a simulation and every cell is answered cancelled.
    Daemon::Config config = smallConfig();
    std::atomic<int> reads{0};
    config.clock = jumpAfter(reads, 3);
    Daemon daemon(config);

    auto submitted = daemon.submit(
        study({jobAt(placement::Algorithm::LoadBal),
               jobAt(placement::Algorithm::ShareRefs),
               jobAt(placement::Algorithm::LoadBal, 8)},
              0, 10ms));
    ASSERT_TRUE(submitted.admitted());

    StudyResponse response = submitted.accepted->get();
    EXPECT_EQ(response.status, StudyStatus::DeadlineExceeded);
    EXPECT_EQ(response.executed, 0u);
    EXPECT_EQ(response.cancelledCells, 3u);
    ASSERT_EQ(response.outcomes.size(), 3u);
    for (const auto &outcome : response.outcomes) {
        ASSERT_FALSE(outcome.ok());
        EXPECT_NE(outcome.error().find("deadline"), std::string::npos)
            << outcome.error();
    }
    daemon.drain();
}

TEST(Daemon, DequeueFaultFailsOneRequestServiceContinues)
{
    Daemon daemon(smallConfig());
    RunJob job = jobAt(placement::Algorithm::LoadBal);

    fault::arm("svc.dequeue:1:error");
    auto first = daemon.submit(study({job}));
    ASSERT_TRUE(first.admitted());
    StudyResponse failed = first.accepted->get();
    fault::disarm();

    EXPECT_EQ(failed.status, StudyStatus::Failed);
    EXPECT_FALSE(failed.error.empty());
    ASSERT_EQ(failed.outcomes.size(), 1u);
    EXPECT_FALSE(failed.outcomes[0].ok());

    // The daemon survives and answers the next request normally.
    auto second = daemon.submit(study({job}));
    ASSERT_TRUE(second.admitted());
    EXPECT_EQ(second.accepted->get().status, StudyStatus::Completed);
    daemon.drain();
    EXPECT_EQ(daemon.counters().completed, 2u);
}

TEST(Daemon, AdmitFaultShedsTheSubmission)
{
    Daemon daemon(smallConfig());
    fault::arm("svc.admit:1:error");
    SubmitResult submitted =
        daemon.submit(study({jobAt(placement::Algorithm::LoadBal)}));
    fault::disarm();

    EXPECT_FALSE(submitted.admitted());
    EXPECT_NE(submitted.rejection.find("injected"), std::string::npos)
        << submitted.rejection;
    EXPECT_EQ(daemon.counters().shed, 1u);
    EXPECT_EQ(daemon.counters().admitted, 0u);
    daemon.drain();
}

TEST(Daemon, DrainingRejectsNewSubmissions)
{
    Daemon daemon(smallConfig());
    RunJob job = jobAt(placement::Algorithm::LoadBal);
    auto admitted = daemon.submit(study({job}));
    ASSERT_TRUE(admitted.admitted());

    daemon.beginDrain();
    EXPECT_TRUE(daemon.draining());
    SubmitResult rejected = daemon.submit(study({job}));
    EXPECT_FALSE(rejected.admitted());
    EXPECT_NE(rejected.rejection.find("draining"), std::string::npos)
        << rejected.rejection;

    // The in-flight request still finishes.
    EXPECT_EQ(admitted.accepted->get().status, StudyStatus::Completed);
    daemon.drain();  // idempotent
    daemon.drain();

    Daemon::Counters counters = daemon.counters();
    EXPECT_EQ(counters.admitted, 1u);
    EXPECT_EQ(counters.completed, 1u);
    EXPECT_EQ(counters.shed, 1u);
    EXPECT_EQ(daemon.queueDepth(), 0u);
}

} // namespace
} // namespace tsp::svc
