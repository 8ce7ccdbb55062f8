/**
 * @file
 * Tests of experiment::Checkpoint as the daemon's result store and as
 * a file several processes share: the documented TSPS layout byte for
 * byte, the store.append/store.load/store.lock fault sites healing
 * under bounded retry, append-only writes with no sidecar files,
 * forked writers and a shared-lock reader, and a daemon serving a
 * sweep's journal as cache hits. The journal contract (replay, torn
 * tails, resume) is tested in checkpoint_test.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "obs/metrics.h"
#include "store_test_support.h"
#include "svc/daemon.h"
#include "util/checksum.h"

namespace tsp::experiment {
namespace {

using namespace store_test;
using placement::Algorithm;

/** This process's wchar from /proc/self/io, if readable. */
std::optional<uint64_t>
bytesWritten()
{
    std::ifstream io("/proc/self/io");
    std::string field;
    uint64_t value = 0;
    while (io >> field >> value) {
        if (field == "wchar:")
            return value;
    }
    return std::nullopt;
}

TEST(Store, WritesTheTspsV3LayoutByteForByte)
{
    std::string path = tempStore("layout");
    RunJob job = jobAt(Algorithm::LoadBal, 4);
    RunResult result = computedResult(job);
    Checkpoint(path, kScale).record(job, result);

    // docs/service.md's layout, built by hand: any store written in
    // it opens, whichever process wrote it.
    codec::ByteWriter key;
    key.u32(kScale);
    key.u32(static_cast<uint32_t>(job.app));
    key.u32(static_cast<uint32_t>(job.alg));
    key.u32(job.point.processors);
    key.u32(job.point.contexts);
    key.u8(0);  // finite cache
    key.u8(0);  // flat-1994
    uint64_t digest = 1469598103934665603ull;  // FNV-1a
    for (unsigned char c : key.bytes())
        digest = (digest ^ c) * 1099511628211ull;
    codec::ByteWriter payload;
    payload.u64(digest);
    payload.u32(static_cast<uint32_t>(key.bytes().size()));
    payload.raw(key.bytes().data(), key.bytes().size());
    codec::writeRunResult(payload, result);
    // docs/service.md's record size: O(T + P) for T threads on P
    // processors, with no thread-pair term.
    const size_t threads = result.placement.threadCount();
    const size_t procs = result.stats.procs.size();
    EXPECT_EQ(payload.bytes().size(),
              8 + 4 + key.bytes().size() + 100 + 4 * threads +
                  128 * procs);

    codec::ByteWriter image;
    image.raw("TSPS", 4);
    image.u32(3);
    image.u32(kScale);
    image.u32(static_cast<uint32_t>(payload.bytes().size()));
    image.u32(util::crc32(payload.bytes()));
    EXPECT_EQ(readFile(path), image.bytes() + payload.bytes());
}

TEST(Store, TransientAppendFaultHealsUnderRetry)
{
    std::string path = tempStore("append_fault");
    RunJob job = jobAt(Algorithm::LoadBal, 4);
    Checkpoint store(path, kScale);

    fault::arm("store.append:1:error");
    EXPECT_TRUE(store.record(job, computedResult(job)));
    fault::disarm();

    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 1u);
}

TEST(Store, PersistentAppendFaultKeepsTheRecordForTheNextAppend)
{
    std::string path = tempStore("append_fault_persistent");
    RunJob first = jobAt(Algorithm::LoadBal, 4);
    RunJob second = jobAt(Algorithm::ShareRefs, 4);
    Checkpoint store(path, kScale);

    // Every append fails: the bounded retry exhausts, the error
    // reaches the caller and the store counts it.
    obs::setMetricsEnabled(true);
    uint64_t failuresBefore = obs::storeAppendFailures().value();
    fault::arm("store.append:1+:error");
    EXPECT_THROW(store.record(first, computedResult(first)),
                 std::runtime_error);
    fault::disarm();
    EXPECT_EQ(obs::storeAppendFailures().value(), failuresBefore + 1);
    obs::setMetricsEnabled(false);

    // Not on disk, but resident and served...
    expectHolds(store, first);
    // ...and appended along with the next record.
    EXPECT_TRUE(store.record(second, computedResult(second)));
    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 2u);
    expectHolds(reopened, first);
}

TEST(Store, LoadFaultSiteFires)
{
    std::string path = tempStore("load_fault");
    fault::arm("store.load:1:error");
    EXPECT_THROW(Checkpoint(path, kScale), std::runtime_error);
    fault::disarm();
    EXPECT_NO_THROW(Checkpoint(path, kScale));
}

TEST(Store, LockFaultHealsUnderRetry)
{
    std::string path = tempStore("lock_fault");
    RunJob job = jobAt(Algorithm::LoadBal, 4);
    Checkpoint store(path, kScale);

    fault::arm("store.lock:1:error");
    EXPECT_TRUE(store.record(job, computedResult(job)));
    fault::disarm();

    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 1u);
}

TEST(Store, RecordsWriteLinearBytesAndNoSidecarFiles)
{
    if (!bytesWritten())
        GTEST_SKIP() << "/proc/self/io is unreadable";
    std::string path = tempStore("linear");
    // The store never looks inside a result, so one computed result
    // under 20 distinct keys measures its I/O without 20 simulations.
    RunResult result = computedResult(jobAt(Algorithm::LoadBal, 4));

    Checkpoint store(path, kScale);
    uint64_t before = *bytesWritten();
    for (uint32_t processors = 1; processors <= 20; ++processors)
        EXPECT_TRUE(store.record(jobAt(Algorithm::LoadBal, processors),
                                 result));
    uint64_t written = *bytesWritten() - before;

    // Each record is written once: N records cost O(N) bytes, where
    // rewriting the file per record would cost O(N^2).
    EXPECT_LT(written, 2 * readFile(path).size());
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(path + ".lock"));
}

// --------------------------------------------- several processes

TEST(Store, ForkedWritersLandEveryRecordOnce)
{
    std::string path = tempStore("forked");

    // Two record sets sharing one key per point, computed in the
    // parent before the fork so the children only exercise store
    // I/O, not simulation.
    std::vector<RunJob> left, right;
    for (uint32_t p : {2u, 4u, 8u}) {
        left.push_back(jobAt(Algorithm::LoadBal, p));
        right.push_back(jobAt(Algorithm::ShareRefs, p));
        left.push_back(jobAt(Algorithm::Random, p));
        right.push_back(jobAt(Algorithm::Random, p));
    }
    std::vector<RunResult> leftResults, rightResults;
    for (const RunJob &job : left)
        leftResults.push_back(computedResult(job));
    for (const RunJob &job : right)
        rightResults.push_back(computedResult(job));

    pid_t a = forkWriter(path, left, leftResults);
    pid_t b = forkWriter(path, right, rightResults);
    expectCleanExit(a);
    expectCleanExit(b);

    // A fresh reader sees both sets bit-identically — no lost update,
    // no torn file — and each shared key once: a writer skips a key
    // the other appended first.
    Checkpoint merged(path, kScale);
    EXPECT_EQ(merged.droppedBytes(), 0u);
    EXPECT_EQ(merged.size(), 9u);
    EXPECT_EQ(frameCount(path), 9u);
    for (const RunJob &job : left)
        expectHolds(merged, job);
    for (const RunJob &job : right)
        expectHolds(merged, job);
}

TEST(Store, SharedLockReaderNeverSeesATornAppend)
{
    std::string path = tempStore("reader");
    std::vector<RunJob> jobs;
    std::vector<RunResult> results;
    for (uint32_t p : {2u, 4u, 8u, 16u}) {
        jobs.push_back(jobAt(Algorithm::LoadBal, p));
        results.push_back(computedResult(jobs.back()));
    }
    pid_t writer = forkWriter(path, jobs, results);

    // Race the writer with shared-lock loads: every snapshot is a
    // whole prefix of the growing store — zero dropped bytes and a
    // record count that only grows.
    size_t lastSize = 0;
    for (int probe = 0; probe < 50; ++probe) {
        Checkpoint reader(path, kScale);
        EXPECT_EQ(reader.droppedBytes(), 0u);
        EXPECT_GE(reader.size(), lastSize);
        EXPECT_LE(reader.size(), jobs.size());
        lastSize = reader.size();
    }
    expectCleanExit(writer);

    Checkpoint settled(path, kScale);
    EXPECT_EQ(settled.size(), jobs.size());
    EXPECT_EQ(settled.droppedBytes(), 0u);
}

// ------------------------------------------------------------ daemon

TEST(Store, SweepJournalIsServedByTheDaemonAsCacheHits)
{
    std::string path = tempStore("sweep_then_daemon");
    std::vector<RunJob> jobs = {jobAt(Algorithm::Random, 4),
                                jobAt(Algorithm::LoadBal, 4),
                                jobAt(Algorithm::ShareRefs, 8)};
    std::vector<RunResult> swept;
    {
        Lab lab(kScale);
        Checkpoint journal(path, kScale);
        SweepOptions options;
        options.jobs = 2;
        options.checkpoint = &journal;
        swept = ParallelRunner(lab, options).runAll(jobs);
    }

    svc::Daemon::Config config;
    config.scale = kScale;
    config.workers = 1;
    config.storePath = path;
    svc::Daemon daemon(config);
    svc::StudyRequest request;
    request.jobs = jobs;
    svc::SubmitResult submitted = daemon.submit(request);
    ASSERT_TRUE(submitted.admitted()) << submitted.rejection;
    svc::StudyResponse response = submitted.accepted->get();
    daemon.drain();

    EXPECT_EQ(response.status, svc::StudyStatus::Completed);
    EXPECT_EQ(response.cacheHits, jobs.size());
    EXPECT_EQ(response.executed, 0u);
    ASSERT_EQ(response.outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(response.outcomes[i].ok())
            << response.outcomes[i].error();
        EXPECT_EQ(bytesOf(response.outcomes[i].value()),
                  bytesOf(swept[i]));
    }
}

} // namespace
} // namespace tsp::experiment
