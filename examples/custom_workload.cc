/**
 * @file
 * Custom workload: build an application profile from scratch, sweep a
 * structural knob (how sequentially the threads share), and watch the
 * coherence traffic respond — a do-it-yourself version of the paper's
 * Section 4.2 investigation.
 *
 * The knob is refsPerSharedAddr: longer uninterrupted runs per shared
 * datum mean more sequential sharing, which is exactly what decouples
 * static sharing counts from runtime coherence traffic.
 */

#include <cstdio>

#include "analysis/static_analysis.h"
#include "sim/coherence_probe.h"
#include "trace/trace_io.h"
#include "util/format.h"
#include "util/table.h"
#include "workload/app_profile.h"
#include "workload/generator.h"

int
main()
{
    using namespace tsp;

    util::TextTable table(
        "sequential sharing vs. runtime coherence traffic\n"
        "(fixed shared-reference volume; only run length varies)");
    table.setHeader({"refs/shared addr", "static shared refs",
                     "dynamic traffic", "dynamic % of refs",
                     "static/dynamic"});

    for (double runLength : {4.0, 16.0, 64.0, 256.0}) {
        workload::AppProfile p;
        p.name = "custom";
        p.threads = 12;
        p.meanLength = 80'000;
        p.sharedRefFrac = 0.6;
        p.refsPerSharedAddr = runLength;
        p.globalFrac = 1.0;
        p.globalWriteMode = workload::GlobalWriteMode::Migratory;
        p.seed = 31337;

        auto traces = workload::generateTraces(p);
        auto an = analysis::StaticAnalysis::analyze(traces);

        sim::SimConfig base;
        base.cacheBytes = 64 * 1024;
        auto probe = sim::measureCoherenceTraffic(traces, base);

        double staticTotal = an.sharedRefs().total();
        double dynTotal = static_cast<double>(
            probe.stats.dynamicSharingTraffic());
        table.addRow({
            util::fmtFixed(runLength, 0),
            util::fmtCompact(staticTotal),
            util::fmtCompact(dynTotal),
            util::fmtPercent(dynTotal /
                             static_cast<double>(an.totalRefs())),
            dynTotal > 0 ? util::fmtRatio(staticTotal / dynTotal, 0)
                         : "inf",
        });
    }
    table.print();

    // Bonus: persist a workload to disk and reload it, the
    // trace-driven workflow for experiments that share inputs.
    workload::AppProfile p;
    p.name = "saved";
    p.threads = 4;
    p.meanLength = 10'000;
    p.seed = 7;
    auto traces = workload::generateTraces(p);
    std::string path = "/tmp/tsp_custom_workload.tspt";
    trace::saveFile(traces, path);
    auto loaded = trace::loadFile(path);
    std::printf("\nsaved and reloaded '%s': %u threads, %s "
                "instructions\n",
                loaded.name().c_str(), loaded.threadCount(),
                util::fmtCompact(static_cast<double>(
                    loaded.totalInstructions())).c_str());
    return 0;
}
