/**
 * @file
 * Coherence probe demo: measure the thread-pair coherence traffic of
 * a suite application (Section 4.2's one-thread-per-processor run),
 * print the hottest pairs next to their static shared-reference
 * counts, and build the COHERENCE-TRAFFIC "oracle" placement from it.
 *
 * Usage: coherence_probe_demo [app-name]
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "experiment/lab.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/table.h"
#include "workload/suite.h"

int
main(int argc, char **argv)
{
    using namespace tsp;

    workload::AppId app = argc > 1 ? workload::appByName(argv[1])
                                   : workload::AppId::LocusRoute;
    experiment::Lab lab(workload::defaultScale());
    const auto &an = lab.analysis(app);
    const auto &dynamic = lab.coherenceMatrix(app);
    const auto &statics = an.sharedRefs();

    std::printf("coherence probe: %s, %zu threads, one per processor\n\n",
                workload::appName(app).c_str(), an.threadCount());

    // Rank thread pairs by measured coherence traffic.
    struct Pair { uint32_t a, b; double dyn, stat; };
    std::vector<Pair> pairs;
    for (uint32_t a = 0; a < an.threadCount(); ++a)
        for (uint32_t b = a + 1; b < an.threadCount(); ++b)
            pairs.push_back({a, b, dynamic.get(a, b),
                             statics.get(a, b)});
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair &x, const Pair &y) { return x.dyn > y.dyn; });

    util::TextTable table("hottest thread pairs (by measured traffic)");
    table.setHeader({"pair", "dynamic coherence events",
                     "static shared refs", "static/dynamic"});
    for (size_t i = 0; i < pairs.size() && i < 10; ++i) {
        const auto &p = pairs[i];
        table.addRow({
            util::concat("(", p.a, ",", p.b, ")"),
            util::fmtCompact(p.dyn),
            util::fmtCompact(p.stat),
            p.dyn > 0 ? util::fmtRatio(p.stat / p.dyn, 0) : "inf",
        });
    }
    table.print();

    // Build the oracle placement and compare against LOAD-BAL.
    experiment::MachinePoint point{
        4, static_cast<uint32_t>((an.threadCount() + 3) / 4)};
    auto oracle = lab.run(app, placement::Algorithm::CoherenceTraffic,
                          point);
    auto loadBal = lab.run(app, placement::Algorithm::LoadBal, point);
    std::printf("\nCOHERENCE-TRAFFIC placement: %s\n",
                oracle.placement.describe().c_str());
    std::printf("exec cycles: oracle %s vs LOAD-BAL %s (%s)\n",
                util::fmtThousands(static_cast<int64_t>(
                    oracle.executionTime)).c_str(),
                util::fmtThousands(static_cast<int64_t>(
                    loadBal.executionTime)).c_str(),
                util::fmtRatio(static_cast<double>(oracle.executionTime) /
                                   static_cast<double>(
                                       loadBal.executionTime),
                               2)
                    .c_str());
    std::printf("\nEven the best dynamically-informed sharing placement "
                "does not beat plain load balancing —\nthe paper's "
                "Section 4.2 conclusion.\n");
    return 0;
}
