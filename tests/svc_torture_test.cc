/**
 * @file
 * Crash-recovery torture: a forked child runs the experiment daemon
 * against an on-disk result store (with the `store.append` site armed
 * to delay, widening the append window) and is SIGKILLed mid-append,
 * repeatedly. After every kill the parent reopens the store and
 * asserts the recovery contract — every surviving record is intact
 * and bit-identical to an independently computed result, and the
 * dropped tail is shorter than one record's frame, i.e. kill -9 loses
 * at most the record being appended. A final daemon over the tortured
 * store answers the whole study from cache, bit-identically, and
 * leaves every cell on disk.
 *
 * The parent holds no Daemon (no threads) until forking is done;
 * the child never returns into gtest (SIGKILL or _exit).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "svc/daemon.h"
#include "svc/loadgen.h"

namespace tsp::svc {
namespace {

using experiment::RunJob;
using experiment::RunResult;
using namespace std::chrono_literals;

constexpr uint32_t kScale = 64;
constexpr int kKillRounds = 3;

std::string
bytesOf(const RunResult &result)
{
    experiment::codec::ByteWriter w;
    experiment::codec::writeRunResult(w, result);
    return w.bytes();
}

long long
fileSize(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<long long>(st.st_size);
}

/**
 * The largest record frame (u32 length, u32 CRC, payload) in the
 * intact store file at @p path, past its 12-byte header.
 */
uint64_t
largestFrame(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    uint64_t largest = 0;
    for (size_t pos = 12; pos + 8 <= bytes.size();) {
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos, sizeof(len));
        largest = std::max<uint64_t>(largest, 8 + len);
        pos += 8 + len;
    }
    return largest;
}

/**
 * Child body: serve the whole @p palette through a store-backed
 * daemon, one cell per study, then idle until killed. Never returns
 * to the caller's stack normally.
 */
[[noreturn]] void
childServe(const std::string &storePath,
           const std::vector<RunJob> &palette)
{
    // Stretch every append so the parent's SIGKILL reliably lands
    // inside the append window.
    fault::arm("store.append:1+:delay");
    {
        Daemon::Config config;
        config.scale = kScale;
        config.workers = 1;
        config.queueCapacity = palette.size() + 1;
        config.storePath = storePath;
        Daemon daemon(config);
        for (const RunJob &job : palette) {
            StudyRequest request;
            request.jobs = {job};
            SubmitResult submitted = daemon.submit(request);
            if (!submitted.admitted())
                break;
            submitted.accepted->get();
        }
        daemon.drain();
    }
    // Store complete; idle here until the parent's kill arrives.
    for (;;)
        std::this_thread::sleep_for(50ms);
}

TEST(SvcTorture, SigkillMidPutNeverLosesMoreThanTheInFlightRecord)
{
    std::string path =
        testing::TempDir() + "/torture_store.tsps";
    std::remove(path.c_str());

    // The study under torture and its expected answers, computed
    // independently of any store or daemon.
    experiment::Lab lab(kScale);
    std::vector<RunJob> palette =
        defaultPalette(lab, workload::AppId::Water);
    ASSERT_GE(palette.size(), 4u);
    std::vector<std::string> expected;
    expected.reserve(palette.size());
    for (const RunJob &job : palette) {
        expected.push_back(bytesOf(
            lab.run(job.app, job.alg, job.point, job.infiniteCache)));
    }

    size_t survivorsBefore = 0;
    std::vector<uint64_t> droppedPerRound;
    for (int round = 0; round < kKillRounds; ++round) {
        long long baseline = fileSize(path);
        pid_t child = fork();
        ASSERT_GE(child, 0) << "fork failed";
        if (child == 0) {
            childServe(path, palette);  // never returns
        }

        // Kill as soon as the store advances past this round's
        // baseline; after a bounded wait, kill regardless (the store
        // may already be complete).
        auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (fileSize(path) <= baseline &&
               std::chrono::steady_clock::now() < giveUp)
            std::this_thread::sleep_for(1ms);
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status));

        // Recovery contract: the store reopens cleanly, every
        // surviving record is a palette cell, and each one is
        // bit-identical to the independently computed result. The
        // kill may cut the in-flight append short; that torn frame is
        // dropped (and checked against the frame size below).
        experiment::Checkpoint recovered(path, kScale);
        droppedPerRound.push_back(recovered.droppedBytes());
        size_t found = 0;
        for (size_t i = 0; i < palette.size(); ++i) {
            auto cached = recovered.lookup(palette[i]);
            if (!cached.has_value())
                continue;
            ++found;
            EXPECT_EQ(bytesOf(*cached), expected[i])
                << "record " << i << " corrupted by kill round "
                << round;
        }
        // Nothing in the store but palette cells, and no regression
        // of previously persisted records.
        EXPECT_EQ(found, recovered.size());
        EXPECT_GE(found, survivorsBefore);
        survivorsBefore = found;
        if (found == palette.size())
            break;  // the store is complete; further kills are no-ops
    }

    // Final leg: a fresh daemon over the tortured store answers the
    // full study; previously persisted cells are cache hits and every
    // outcome is bit-identical to the expected results.
    {
        Daemon::Config config;
        config.scale = kScale;
        config.workers = 2;
        config.queueCapacity = palette.size() + 1;
        config.storePath = path;
        Daemon daemon(config);
        StudyRequest request;
        request.jobs = palette;
        SubmitResult submitted = daemon.submit(request);
        ASSERT_TRUE(submitted.admitted()) << submitted.rejection;
        StudyResponse response = submitted.accepted->get();
        EXPECT_EQ(response.status, StudyStatus::Completed);
        EXPECT_EQ(response.cacheHits, survivorsBefore);
        EXPECT_EQ(response.executed,
                  palette.size() - survivorsBefore);
        ASSERT_EQ(response.outcomes.size(), palette.size());
        for (size_t i = 0; i < palette.size(); ++i) {
            ASSERT_TRUE(response.outcomes[i].ok())
                << response.outcomes[i].error();
            EXPECT_EQ(bytesOf(response.outcomes[i].value()),
                      expected[i]);
        }
        daemon.drain();
        ASSERT_NE(daemon.store(), nullptr);
        EXPECT_EQ(daemon.store()->size(), palette.size());
    }

    // Every cell is on disk, behind no torn bytes: the final leg's
    // first append truncated whatever the last kill left.
    experiment::Checkpoint settled(path, kScale);
    EXPECT_EQ(settled.droppedBytes(), 0u);
    EXPECT_EQ(settled.size(), palette.size());
    for (size_t i = 0; i < palette.size(); ++i) {
        auto cached = settled.lookup(palette[i]);
        ASSERT_TRUE(cached.has_value()) << "record " << i;
        EXPECT_EQ(bytesOf(*cached), expected[i]);
    }

    // A kill loses at most the in-flight frame: fewer bytes than the
    // largest palette record's frame.
    uint64_t frameBound = largestFrame(path);
    for (size_t round = 0; round < droppedPerRound.size(); ++round) {
        EXPECT_LT(droppedPerRound[round], frameBound)
            << "kill round " << round
            << " dropped more than the in-flight frame";
    }

    std::remove(path.c_str());
}

} // namespace
} // namespace tsp::svc
