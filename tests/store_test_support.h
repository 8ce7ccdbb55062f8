/**
 * @file
 * Helpers shared by the result-store tests (checkpoint_test and
 * svc_store_test): scratch store paths, real results computed once,
 * canonical result bytes for bit-identity assertions, raw file access
 * and forked writer processes.
 */

#ifndef TSP_TESTS_STORE_TEST_SUPPORT_H
#define TSP_TESTS_STORE_TEST_SUPPORT_H

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/run_codec.h"

namespace tsp::experiment::store_test {

constexpr uint32_t kScale = 64;

inline std::string
tempStore(const std::string &name)
{
    std::string path = testing::TempDir() + "/" + name + ".tsps";
    std::remove(path.c_str());
    return path;
}

inline RunJob
jobAt(placement::Algorithm alg, uint32_t processors, bool infinite = false)
{
    return {workload::AppId::Water, alg, MachinePoint{processors, 4},
            infinite};
}

/** Compute a real result once; cells are cheap at scale 64. */
inline RunResult
computedResult(const RunJob &job)
{
    static Lab lab(kScale);
    return lab.run(job.app, job.alg, job.point, job.infiniteCache);
}

/** Canonical bytes of a result, for bit-identity assertions. */
inline std::string
bytesOf(const RunResult &result)
{
    codec::ByteWriter w;
    codec::writeRunResult(w, result);
    return w.bytes();
}

inline std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

inline void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Frames in an intact store file (12-byte header, u32 length first). */
inline size_t
frameCount(const std::string &path)
{
    std::string bytes = readFile(path);
    size_t count = 0;
    for (size_t pos = 12; pos + 8 <= bytes.size(); ++count) {
        uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos, sizeof(len));
        pos += 8 + len;
    }
    return count;
}

inline void
expectHolds(const Checkpoint &store, const RunJob &job)
{
    auto cached = store.lookup(job);
    ASSERT_TRUE(cached.has_value()) << describeJob(job);
    EXPECT_EQ(bytesOf(*cached), bytesOf(computedResult(job)))
        << describeJob(job);
}

/** Record @p jobs' results through a fresh handle in a child. */
inline pid_t
forkWriter(const std::string &path, const std::vector<RunJob> &jobs,
           const std::vector<RunResult> &results)
{
    pid_t pid = fork();
    if (pid == 0) {
        Checkpoint store(path, kScale);
        for (size_t i = 0; i < jobs.size(); ++i)
            store.record(jobs[i], results[i]);
        _exit(0);
    }
    return pid;
}

inline void
expectCleanExit(pid_t pid)
{
    ASSERT_GE(pid, 0) << "fork failed";
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

} // namespace tsp::experiment::store_test

#endif // TSP_TESTS_STORE_TEST_SUPPORT_H
