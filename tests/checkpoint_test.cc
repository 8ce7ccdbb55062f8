/**
 * @file
 * Tests of experiment::Checkpoint as a sweep's journal: bit-identical
 * replay, idempotent records, scale binding and foreign-file
 * rejection, torn-tail recovery and in-place truncation, corrupt
 * records, resume after a failed append, and end-to-end sweep resume
 * running only the missing cells. The same store serving the daemon
 * and shared between processes is tested in svc_store_test.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "store_test_support.h"
#include "util/error.h"

namespace tsp::experiment {
namespace {

using namespace store_test;
using placement::Algorithm;

TEST(Checkpoint, RecordedResultsReplayBitIdentically)
{
    std::string path = tempStore("roundtrip");
    RunJob jobs[] = {jobAt(Algorithm::LoadBal, 4),
                     jobAt(Algorithm::ShareRefs, 4),
                     jobAt(Algorithm::LoadBal, 8)};
    // Differs from jobs[0] only in its cache: a distinct key.
    RunJob infinite = jobAt(Algorithm::LoadBal, 4, true);
    {
        Checkpoint store(path, kScale);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_FALSE(store.lookup(jobs[0]).has_value());
        for (const RunJob &job : jobs)
            EXPECT_TRUE(store.record(job, computedResult(job)));
        EXPECT_EQ(store.size(), 3u);
        expectHolds(store, jobs[0]);
        EXPECT_FALSE(store.lookup(infinite).has_value());
    }

    // A new process opening the same file sees the exact results.
    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(reopened.droppedBytes(), 0u);
    for (const RunJob &job : jobs)
        expectHolds(reopened, job);
    EXPECT_FALSE(reopened.lookup(infinite).has_value());
}

TEST(Checkpoint, RecordIsIdempotent)
{
    std::string path = tempStore("idempotent");
    RunJob job = jobAt(Algorithm::ShareRefs, 4);
    Checkpoint store(path, kScale);
    EXPECT_TRUE(store.record(job, computedResult(job)));
    size_t bytes = readFile(path).size();
    EXPECT_FALSE(store.record(job, computedResult(job)));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(readFile(path).size(), bytes);
}

TEST(Checkpoint, ScaleMismatchIsFatal)
{
    std::string path = tempStore("scale");
    RunJob job = jobAt(Algorithm::Random, 4);
    Checkpoint(path, kScale).record(job, computedResult(job));
    EXPECT_THROW(Checkpoint(path, kScale * 2), util::FatalError);
}

TEST(Checkpoint, ForeignFileIsFatalAndNamed)
{
    std::string path = tempStore("foreign");
    writeFile(path, "definitely not a TSPS store");
    EXPECT_THROW(Checkpoint(path, kScale), util::FatalError);

    // A journal in the old TSPC format is foreign too.
    codec::ByteWriter tspc;
    tspc.raw("TSPC", 4);
    tspc.u32(2);
    tspc.u32(kScale);
    writeFile(path, tspc.bytes());
    try {
        Checkpoint store(path, kScale);
        ADD_FAILURE() << "a TSPC journal opened as a store";
    } catch (const util::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, TornTailIsDroppedOnLoadAndTruncatedByTheNextAppend)
{
    std::string path = tempStore("torn");
    // second's torn frame is longer than third's whole frame (16
    // processors of statistics against 2), so only truncating it
    // leaves no garbage behind third.
    RunJob first = jobAt(Algorithm::Random, 4);
    RunJob second = jobAt(Algorithm::ShareRefs, 16);
    RunJob third = jobAt(Algorithm::LoadBal, 2);
    {
        Checkpoint store(path, kScale);
        store.record(first, computedResult(first));
        store.record(second, computedResult(second));
    }

    // Kill simulation: chop 7 bytes off the tail, mid-record.
    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 7u);
    writeFile(path, bytes.substr(0, bytes.size() - 7));

    Checkpoint store(path, kScale);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_GT(store.droppedBytes(), 0u);
    expectHolds(store, first);
    EXPECT_FALSE(store.lookup(second).has_value());

    // The next append truncates the torn frame in place: nothing is
    // left between the intact records and the new one.
    EXPECT_TRUE(store.record(third, computedResult(third)));
    {
        Checkpoint reopened(path, kScale);
        EXPECT_EQ(reopened.droppedBytes(), 0u);
        EXPECT_EQ(reopened.size(), 2u);
        expectHolds(reopened, first);
        expectHolds(reopened, third);
    }

    // The dropped cell can be recorded again and survives reopen.
    EXPECT_TRUE(store.record(second, computedResult(second)));
    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.droppedBytes(), 0u);
    EXPECT_EQ(reopened.size(), 3u);
    expectHolds(reopened, second);
}

TEST(Checkpoint, CorruptMiddleRecordDropsTheTail)
{
    std::string path = tempStore("bitrot");
    RunJob jobs[] = {jobAt(Algorithm::Random, 4),
                     jobAt(Algorithm::LoadBal, 4),
                     jobAt(Algorithm::ShareRefs, 4)};
    size_t secondStart = 0;
    {
        Checkpoint store(path, kScale);
        store.record(jobs[0], computedResult(jobs[0]));
        secondStart = readFile(path).size();
        store.record(jobs[1], computedResult(jobs[1]));
        store.record(jobs[2], computedResult(jobs[2]));
    }

    // Flip one payload byte of the middle record: its CRC frame no
    // longer matches, so it and everything after it are dropped.
    std::string bytes = readFile(path);
    size_t target = secondStart + 8 + 4;  // frame + a payload byte
    bytes[target] = static_cast<char>(bytes[target] ^ 0xFF);
    writeFile(path, bytes);

    Checkpoint store(path, kScale);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.droppedBytes(), bytes.size() - secondStart);
    expectHolds(store, jobs[0]);
}

TEST(Checkpoint, ResumesBitIdenticallyAfterInjectedAppendFailure)
{
    std::string path = tempStore("append_failure");
    RunJob first = jobAt(Algorithm::Random, 4);
    RunJob second = jobAt(Algorithm::ShareRefs, 4);
    RunJob third = jobAt(Algorithm::LoadBal, 8);

    Checkpoint store(path, kScale);
    store.record(first, computedResult(first));
    std::string fileBefore = readFile(path);

    // Every append now fails, before it writes a byte: the file is
    // exactly the pre-failure file, not a torn half-append.
    fault::arm("store.append:1+:error");
    EXPECT_THROW(store.record(second, computedResult(second)),
                 std::runtime_error);
    fault::disarm();
    EXPECT_EQ(readFile(path), fileBefore);

    // A fresh process resumes from the file: the first cell replays
    // bit-identically, the failed one is absent and is recorded again.
    Checkpoint resumed(path, kScale);
    EXPECT_EQ(resumed.size(), 1u);
    EXPECT_EQ(resumed.droppedBytes(), 0u);
    expectHolds(resumed, first);
    EXPECT_FALSE(resumed.lookup(second).has_value());
    EXPECT_TRUE(resumed.record(second, computedResult(second)));

    // The first handle still holds second unwritten. Its next record
    // finds second already on disk (the resumed handle appended it)
    // and appends only third: each key is on disk once.
    EXPECT_TRUE(store.record(third, computedResult(third)));
    Checkpoint reopened(path, kScale);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_EQ(frameCount(path), 3u);
    expectHolds(reopened, second);
    expectHolds(reopened, third);
}

// ------------------------------------------------------------ sweeps

TEST(Checkpoint, SweepResumesRunningOnlyMissingCells)
{
    std::string path = tempStore("resume");
    std::vector<RunJob> jobs = {
        {workload::AppId::Water, Algorithm::Random, {2, 4}, false},
        {workload::AppId::Water, Algorithm::LoadBal, {2, 4}, false},
        {workload::AppId::Water, Algorithm::ShareRefs, {4, 2}, false},
        {workload::AppId::Water, Algorithm::MinShare, {4, 2}, false},
    };

    // A clean, checkpoint-free run for the bit-identical baseline.
    Lab baselineLab(kScale);
    auto baseline = ParallelRunner(baselineLab, 1).runAll(jobs);

    // First sweep is killed after two cells: only they get journaled.
    {
        Lab lab(kScale);
        Checkpoint cp(path, kScale);
        SweepOptions options;
        options.jobs = 2;
        options.checkpoint = &cp;
        std::vector<RunJob> firstHalf(jobs.begin(), jobs.begin() + 2);
        ParallelRunner(lab, options).runAll(firstHalf);
        EXPECT_EQ(cp.size(), 2u);
    }

    // The resumed sweep replays those two and simulates the rest.
    Lab lab(kScale);
    Checkpoint cp(path, kScale);
    SweepStats stats;
    SweepOptions options;
    options.jobs = 2;
    options.checkpoint = &cp;
    options.statsOut = &stats;
    auto resumed = ParallelRunner(lab, options).runAll(jobs);

    EXPECT_EQ(stats.total, jobs.size());
    EXPECT_EQ(stats.unique, jobs.size());
    EXPECT_EQ(stats.fromCheckpoint, 2u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.failed, 0u);

    ASSERT_EQ(resumed.size(), baseline.size());
    for (size_t i = 0; i < resumed.size(); ++i)
        EXPECT_EQ(bytesOf(resumed[i]), bytesOf(baseline[i]));

    // A third pass is all replay.
    Lab thirdLab(kScale);
    Checkpoint cp2(path, kScale);
    SweepStats stats2;
    SweepOptions options2;
    options2.jobs = 2;
    options2.checkpoint = &cp2;
    options2.statsOut = &stats2;
    auto third = ParallelRunner(thirdLab, options2).runAll(jobs);
    EXPECT_EQ(stats2.fromCheckpoint, jobs.size());
    EXPECT_EQ(stats2.executed, 0u);
    for (size_t i = 0; i < third.size(); ++i)
        EXPECT_EQ(bytesOf(third[i]), bytesOf(baseline[i]));
}

} // namespace
} // namespace tsp::experiment
