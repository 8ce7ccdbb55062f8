/**
 * @file
 * Ablation — interconnect bandwidth. The paper "does not explicitly
 * model network contention" and Agarwal's analysis makes
 * multithreading's value contingent on sufficient bandwidth. This
 * bench bounds the network to a few queued links (SimConfig::
 * networkLinks) and asks whether the placement conclusion survives:
 * if sharing-based placement were ever going to pay off, it would be
 * when interconnect transactions are expensive — yet its traffic
 * reduction is too small to matter even at one link, which
 * serializes every transaction.
 */

#include <cstdio>

#include "experiment/lab.h"
#include "sim/machine.h"
#include "util/format.h"
#include "util/table.h"
#include "workload/suite.h"

int
main()
{
    using namespace tsp;
    using placement::Algorithm;
    const uint32_t scale = workload::defaultScale();
    experiment::Lab lab(scale);
    workload::AppId app = workload::AppId::MP3D;

    std::printf("Ablation: interconnect bandwidth (%s, 4 processors, "
                "scale 1/%u, link occupancy 8 cycles)\n\n",
                workload::appName(app).c_str(), scale);

    const auto &an = lab.analysis(app);
    experiment::MachinePoint point{
        4, static_cast<uint32_t>((an.threadCount() + 3) / 4)};

    util::TextTable table;
    table.setHeader({"links", "LOAD-BAL exec", "SHARE-REFS exec",
                     "SHARE-REFS/LOAD-BAL", "queueing cycles",
                     "max queue"});
    for (uint32_t links : {0u, 8u, 4u, 2u, 1u}) {
        auto runWith = [&](Algorithm alg) {
            sim::SimConfig cfg = lab.configFor(app, point);
            cfg.networkLinks = links;
            cfg.linkOccupancy = 8;
            auto placement =
                lab.placementFor(app, alg, point.processors);
            return sim::simulate(cfg, lab.traces(app), placement);
        };
        auto loadBal = runWith(Algorithm::LoadBal);
        auto shareRefs = runWith(Algorithm::ShareRefs);
        table.addRow({
            links ? std::to_string(links) : "unlimited",
            util::fmtThousands(static_cast<int64_t>(
                loadBal.executionTime())),
            util::fmtThousands(static_cast<int64_t>(
                shareRefs.executionTime())),
            util::fmtFixed(static_cast<double>(
                               shareRefs.executionTime()) /
                               static_cast<double>(
                                   loadBal.executionTime()),
                           3),
            util::fmtThousands(static_cast<int64_t>(
                loadBal.networkQueueingCycles)),
            std::to_string(loadBal.networkMaxQueueing),
        });
    }
    table.print();
    std::printf("\nexpected: one link, which serializes every "
                "transaction, is the slowest row, and SHARE-REFS never "
                "overtakes LOAD-BAL at any link count — coherence "
                "traffic is too small a share of transactions for "
                "placement to reclaim bandwidth (the paper's "
                "contention-free simplification was safe). Queueing "
                "reorders misses, so time need not grow at every "
                "step.\n");
    return 0;
}
