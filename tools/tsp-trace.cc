/**
 * @file
 * tsp_trace — trace workflow CLI.
 *
 *   tsp_trace gen <app|all> <file.tspt> [scale]   generate suite traces
 *   tsp_trace info <file.tspt>                    header + totals
 *   tsp_trace analyze <file.tspt>                 Table 2-style metrics
 *   tsp_trace dump <file.tspt> <thread> [count]   first events of a thread
 *
 * Traces use the TSPT binary format (trace/trace_io.h), so workloads
 * can be generated once and replayed across experiments — the
 * trace-driven workflow of the paper.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/characteristics.h"
#include "analysis/static_analysis.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/format.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace {

using namespace tsp;

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  tsp_trace gen <app|all> <file.tspt> [scale]\n"
                 "  tsp_trace info <file.tspt>\n"
                 "  tsp_trace analyze <file.tspt>\n"
                 "  tsp_trace dump <file.tspt> <thread> [count]\n"
                 "apps: ");
    for (workload::AppId app : workload::allApps())
        std::fprintf(stderr, "%s ", workload::appName(app).c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    std::string appName = argv[2];
    std::string path = argv[3];
    uint32_t scale = argc > 4
        ? util::parseUnsigned32(argv[4], "scale", 1)
        : workload::defaultScale();

    if (appName == "all") {
        for (workload::AppId app : workload::allApps()) {
            auto traces =
                workload::generateTraces(workload::profile(app), scale);
            std::string file = path + "/" + workload::appName(app) +
                               ".tspt";
            trace::saveFile(traces, file);
            std::printf("wrote %s (%s instructions)\n", file.c_str(),
                        util::fmtCompact(static_cast<double>(
                            traces.totalInstructions())).c_str());
        }
        return 0;
    }
    workload::AppId app = workload::appByName(appName);
    auto traces = workload::generateTraces(workload::profile(app),
                                           scale);
    trace::saveFile(traces, path);
    std::printf("wrote %s: %u threads, %s instructions, %s data "
                "refs, scale 1/%u\n",
                path.c_str(), traces.threadCount(),
                util::fmtCompact(static_cast<double>(
                    traces.totalInstructions())).c_str(),
                util::fmtCompact(static_cast<double>(
                    traces.totalMemRefs())).c_str(),
                scale);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    auto traces = trace::loadFile(argv[2]);
    std::printf("application: %s\n", traces.name().c_str());
    std::printf("threads:     %u\n", traces.threadCount());
    std::printf("instructions:%s\n",
                util::fmtThousands(static_cast<int64_t>(
                    traces.totalInstructions())).c_str());
    std::printf("data refs:   %s\n",
                util::fmtThousands(static_cast<int64_t>(
                    traces.totalMemRefs())).c_str());

    util::TextTable table;
    table.setHeader({"thread", "instructions", "loads", "stores"});
    for (const auto &t : traces.threads()) {
        table.addRow({
            std::to_string(t.id()),
            util::fmtThousands(static_cast<int64_t>(
                t.instructionCount())),
            util::fmtThousands(static_cast<int64_t>(t.loadCount())),
            util::fmtThousands(static_cast<int64_t>(t.storeCount())),
        });
    }
    table.print();
    return 0;
}

int
cmdAnalyze(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    auto traces = trace::loadFile(argv[2]);
    auto an = analysis::StaticAnalysis::analyze(traces);
    util::Rng rng(1);
    auto row = analysis::computeCharacteristics(an, rng);

    std::printf("application: %s\n", row.app.c_str());
    std::printf("pairwise sharing:      mean %s, dev %s%%\n",
                util::fmtCompact(row.pairwiseMean).c_str(),
                util::fmtFixed(row.pairwiseDevPct, 1).c_str());
    std::printf("n-way sharing:         mean %s, dev %s%%\n",
                util::fmtCompact(row.nwayMean).c_str(),
                util::fmtFixed(row.nwayDevPct, 1).c_str());
    std::printf("refs per shared addr:  %s (dev %s%%)\n",
                util::fmtFixed(row.refsPerSharedAddrMean, 1).c_str(),
                util::fmtFixed(row.refsPerSharedAddrDevPct, 1).c_str());
    std::printf("shared refs:           %s%%\n",
                util::fmtFixed(row.sharedRefsPct, 1).c_str());
    std::printf("thread length:         mean %s, dev %s%%\n",
                util::fmtCompact(row.lengthMean).c_str(),
                util::fmtFixed(row.lengthDevPct, 1).c_str());
    std::printf("shared addresses:      %s (private: %s)\n",
                util::fmtThousands(static_cast<int64_t>(
                    an.sharedAddrCount())).c_str(),
                util::fmtThousands(static_cast<int64_t>(
                    an.privateAddrCount())).c_str());
    return 0;
}

int
cmdDump(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    auto traces = trace::loadFile(argv[2]);
    uint32_t tid = util::parseUnsigned32(argv[3], "thread");
    size_t count = argc > 4
        ? static_cast<size_t>(util::parseUnsigned(argv[4], "count"))
        : 20;
    util::fatalIf(tid >= traces.threadCount(), "no such thread");

    const auto &t = traces.thread(tid);
    size_t shown = 0;
    for (const auto &e : t.events()) {
        if (shown++ >= count)
            break;
        switch (e.kind()) {
          case trace::EventKind::Work:
            std::printf("work  x%llu\n",
                        static_cast<unsigned long long>(
                            e.instructions()));
            break;
          case trace::EventKind::Load:
            std::printf("load  0x%llx\n",
                        static_cast<unsigned long long>(e.address()));
            break;
          case trace::EventKind::Store:
            std::printf("store 0x%llx\n",
                        static_cast<unsigned long long>(e.address()));
            break;
          case trace::EventKind::Barrier:
            std::printf("barrier #%llu\n",
                        static_cast<unsigned long long>(
                            e.barrierIndex()));
            break;
        }
    }
    std::printf("(%zu of %zu events)\n", std::min(shown, count),
                t.events().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    try {
        if (std::strcmp(argv[1], "gen") == 0)
            return cmdGen(argc, argv);
        if (std::strcmp(argv[1], "info") == 0)
            return cmdInfo(argc, argv);
        if (std::strcmp(argv[1], "analyze") == 0)
            return cmdAnalyze(argc, argv);
        if (std::strcmp(argv[1], "dump") == 0)
            return cmdDump(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return usage();
}
