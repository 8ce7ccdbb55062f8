/**
 * @file
 * Tests of the trace sink: a multi-threaded emission session must
 * produce (a) a strictly valid Chrome trace-event JSON document and
 * (b) a JSONL stream whose every event line parses standalone, with
 * the schema documented in docs/observability.md.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/trace_sink.h"
#include "util/parallel_for.h"

using namespace tsp;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

TEST(ObsTrace, MultiThreadedSessionIsValidChromeTrace)
{
    const std::string path = tempPath("obs_trace_multithread.json");
    constexpr size_t kEvents = 32;
    {
        obs::TraceSink sink(path, "obs_trace_test");
        obs::TraceSink::installGlobal(&sink);
        util::parallelFor(5, kEvents, [&](size_t i) {
            obs::TraceSink *global = obs::TraceSink::global();
            ASSERT_NE(global, nullptr);
            global->complete(
                "cell " + std::to_string(i), "test", 1.25,
                {obs::TraceArg::num("index",
                                    static_cast<uint64_t>(i)),
                 obs::TraceArg::str("kind", "unit")});
        });
        sink.instant("sweep done", "test");
        EXPECT_EQ(sink.events(), kEvents + 1);
        obs::TraceSink::installGlobal(nullptr);
        sink.close();
        sink.close();  // idempotent
    }

    obs::JsonValue root = obs::parseJson(slurp(path));
    ASSERT_TRUE(root.isArray());

    // process_name metadata + 32 complete + instant + trace_end.
    ASSERT_EQ(root.array.size(), kEvents + 3);
    const obs::JsonValue &meta = root.array.front();
    EXPECT_EQ(meta.at("ph").string, "M");
    EXPECT_EQ(meta.at("name").string, "process_name");
    EXPECT_EQ(meta.at("args").at("name").string, "obs_trace_test");

    size_t complete = 0, instants = 0;
    std::set<std::string> names;
    for (const obs::JsonValue &event : root.array) {
        ASSERT_TRUE(event.isObject());
        EXPECT_TRUE(event.has("name"));
        EXPECT_TRUE(event.has("ph"));
        EXPECT_TRUE(event.has("pid"));
        EXPECT_TRUE(event.has("tid"));
        const std::string &ph = event.at("ph").string;
        if (ph != "M") {
            EXPECT_TRUE(event.has("ts"));  // metadata carries no ts
        }
        if (ph == "X") {
            ++complete;
            EXPECT_TRUE(event.has("dur"));
            EXPECT_GE(event.at("ts").number, 0.0);
            EXPECT_NEAR(event.at("dur").number, 1250.0, 0.5);
            names.insert(event.at("name").string);
        } else if (ph == "i") {
            ++instants;
        }
    }
    EXPECT_EQ(complete, kEvents);
    EXPECT_EQ(instants, 2u);  // "sweep done" + close()'s trace_end
    EXPECT_EQ(names.size(), kEvents) << "every cell event survived";
}

TEST(ObsTrace, EveryEventLineIsStandaloneJson)
{
    const std::string path = tempPath("obs_trace_jsonl.json");
    {
        obs::TraceSink sink(path, "jsonl");
        sink.complete("a", "test", 2.0);
        sink.instant("b", "test",
                     {obs::TraceArg::str("note", "quo\"ted")});
        sink.close();
    }

    std::istringstream lines(slurp(path));
    std::string line;
    size_t eventLines = 0;
    while (std::getline(lines, line)) {
        if (line == "[" || line == "]")
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        obs::JsonValue event = obs::parseJson(line);
        EXPECT_TRUE(event.isObject()) << line;
        ++eventLines;
    }
    // process_name + a + b + trace_end.
    EXPECT_EQ(eventLines, 4u);
}

TEST(ObsTrace, UnclosedFileStillParsesLineByLine)
{
    // A crash-shaped file: header + events, no trailing "]". The
    // Chrome format accepts it; the JSONL property must too.
    const std::string path = tempPath("obs_trace_unclosed.json");
    {
        obs::TraceSink sink(path, "crashy");
        sink.complete("only", "test", 1.0);
        // no close(); destructor closes, so snapshot the file first
        std::string partial = slurp(path);
        std::istringstream lines(partial);
        std::string line;
        size_t parsed = 0;
        while (std::getline(lines, line)) {
            if (line == "[" || line.empty())
                continue;
            if (line.back() == ',')
                line.pop_back();
            obs::JsonValue event = obs::parseJson(line);
            EXPECT_TRUE(event.isObject());
            ++parsed;
        }
        EXPECT_EQ(parsed, 2u);  // process_name + "only"
    }
}

TEST(ObsTrace, ThreadIdsAreSmallAndStablePerThread)
{
    const std::string path = tempPath("obs_trace_tids.json");
    {
        obs::TraceSink sink(path, "tids");
        sink.complete("main-1", "test", 1.0);
        sink.complete("main-2", "test", 1.0);
        sink.close();
    }
    obs::JsonValue root = obs::parseJson(slurp(path));
    ASSERT_TRUE(root.isArray());
    double tid1 = -1, tid2 = -2;
    for (const obs::JsonValue &event : root.array) {
        if (event.at("name").string == "main-1")
            tid1 = event.at("tid").number;
        if (event.at("name").string == "main-2")
            tid2 = event.at("tid").number;
    }
    EXPECT_EQ(tid1, tid2) << "same OS thread, same tid";
    EXPECT_GE(tid1, 0.0);
    EXPECT_LT(tid1, 1000.0) << "tids are small per-process integers";
}

TEST(ObsTrace, GlobalSinkIsNullByDefaultAndEmissionIsSafe)
{
    // With no sink installed the instrumented layers see nullptr and
    // skip emission; this must hold before/after install cycles.
    EXPECT_EQ(obs::TraceSink::global(), nullptr);
    const std::string path = tempPath("obs_trace_global.json");
    {
        obs::TraceSink sink(path, "global");
        obs::TraceSink::installGlobal(&sink);
        EXPECT_EQ(obs::TraceSink::global(), &sink);
    }
    // Destructor uninstalled it.
    EXPECT_EQ(obs::TraceSink::global(), nullptr);
}

} // namespace
