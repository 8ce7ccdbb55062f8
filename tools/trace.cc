/**
 * @file
 * `tsp-run trace`: the TSPT trace files (trace/trace_io.h) of the
 * paper's trace-driven workflow, so workloads can be generated once
 * and replayed across experiments.
 *
 *   trace gen <app|all> <file.tspt> [scale]   generate suite traces
 *   trace info <file.tspt>                    header + totals
 *   trace analyze <file.tspt>                 Table 2-style metrics
 *   trace dump <file.tspt> <thread> [count]   first events of a thread
 */

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "analysis/characteristics.h"
#include "analysis/static_analysis.h"
#include "flags.h"
#include "trace/trace_io.h"
#include "tsp-run.h"
#include "util/error.h"
#include "util/format.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace tsp::tools {
namespace {

/** The trace file, the one positional argument of info and analyze. */
std::string
onlyFile(Args &args)
{
    std::string path = args.positional(parseText, "<file.tspt>");
    if (args.next())
        throw args.unknown();
    return path;
}

int
gen(Args &args)
{
    // No app means all of them, written into the directory <file.tspt>.
    const std::optional<workload::AppId> one = args.positional(
        [](const std::string &text, const std::string &what) {
            return text == "all" ? std::nullopt
                                 : std::optional(parseApp(text, what));
        },
        "<app>");
    const std::string path = args.positional(parseText, "<file.tspt>");
    const uint32_t scale = args.more()
        ? args.positional(parseScale, "<scale>")
        : workload::defaultScale();
    if (args.next())
        throw args.unknown();

    if (!one) {
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
    auto traces = workload::generateTraces(workload::profile(*one),
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
info(Args &args)
{
    auto traces = trace::loadFile(onlyFile(args));
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
analyze(Args &args)
{
    auto traces = trace::loadFile(onlyFile(args));
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
dump(Args &args)
{
    const auto number = [](const std::string &text,
                           const std::string &what) {
        return util::parseUnsigned32(text, what);
    };
    const std::string path = args.positional(parseText, "<file.tspt>");
    const uint32_t tid = args.positional(number, "<thread>");
    const size_t count =
        args.more() ? args.positional(number, "<count>") : 20;
    if (args.next())
        throw args.unknown();
    auto traces = trace::loadFile(path);
    util::fatalIf(tid >= traces.threadCount(),
                  util::concat("<thread>: ", path, " has no thread ",
                               tid));

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
runTrace(int argc, char **argv)
{
    static const std::pair<std::string, int (*)(Args &)> kCommands[] = {
        {"gen", gen}, {"info", info}, {"analyze", analyze}, {"dump", dump}};
    Args args(argc, argv, 2);
    const auto command = args.positional(
        [](const std::string &text, const std::string &) {
            for (const auto &[name, run] : kCommands)
                if (text == name)
                    return run;
            util::fatal("unknown command: " + text);
        },
        "trace <command>");
    return command(args);
}

} // namespace tsp::tools
