/**
 * @file
 * Miss breakdown: simulate one application at one machine point and
 * print the per-processor cycle and miss accounting — the simulator's
 * full observability surface (Figure 5's raw material, plus cycle
 * breakdowns the paper's processor unit maintains).
 *
 * Usage: miss_breakdown [app-name] [processors] [contexts]
 */

#include <cstdio>
#include <cstdlib>

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
                                   : workload::AppId::MP3D;
    uint32_t procs = argc > 2
        ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10))
        : 4;
    experiment::Lab lab(workload::defaultScale());
    const auto &an = lab.analysis(app);
    uint32_t contexts = argc > 3
        ? static_cast<uint32_t>(std::strtoul(argv[3], nullptr, 10))
        : static_cast<uint32_t>(
              (an.threadCount() + procs - 1) / procs);

    experiment::MachinePoint point{procs, contexts};
    auto result =
        lab.run(app, placement::Algorithm::LoadBal, point);
    const auto &stats = result.stats;

    std::printf("%s on %s, LOAD-BAL placement\n",
                workload::appName(app).c_str(),
                lab.configFor(app, point).describe().c_str());
    std::printf("placement: %s\n\n", result.placement.describe().c_str());

    util::TextTable cycles("per-processor cycles");
    cycles.setHeader({"proc", "busy", "switch", "idle", "finish",
                      "utilization"});
    for (size_t p = 0; p < stats.procs.size(); ++p) {
        const auto &ps = stats.procs[p];
        double util = ps.finishTime
            ? static_cast<double>(ps.busyCycles) /
                  static_cast<double>(ps.finishTime)
            : 0.0;
        cycles.addRow({
            util::concat("P", p),
            util::fmtThousands(static_cast<int64_t>(ps.busyCycles)),
            util::fmtThousands(static_cast<int64_t>(ps.switchCycles)),
            util::fmtThousands(static_cast<int64_t>(ps.idleCycles)),
            util::fmtThousands(static_cast<int64_t>(ps.finishTime)),
            util::fmtPercent(util, 1),
        });
    }
    cycles.print();

    util::TextTable misses("\nper-processor misses");
    misses.setHeader({"proc", "refs", "hits", "compulsory",
                      "intra-conf", "inter-conf", "invalidation",
                      "upgrades", "invals sent"});
    for (size_t p = 0; p < stats.procs.size(); ++p) {
        const auto &ps = stats.procs[p];
        misses.addRow({
            util::concat("P", p),
            util::fmtThousands(static_cast<int64_t>(ps.memRefs)),
            util::fmtThousands(static_cast<int64_t>(ps.hits)),
            std::to_string(ps.missCount(sim::MissKind::Compulsory)),
            std::to_string(
                ps.missCount(sim::MissKind::IntraConflict)),
            std::to_string(
                ps.missCount(sim::MissKind::InterConflict)),
            std::to_string(
                ps.missCount(sim::MissKind::Invalidation)),
            std::to_string(ps.upgrades),
            std::to_string(ps.invalidationsSent),
        });
    }
    misses.print();

    std::printf("\nexecution time: %s cycles, overall miss rate %s\n",
                util::fmtThousands(static_cast<int64_t>(
                    stats.executionTime())).c_str(),
                util::fmtPercent(stats.missRate()).c_str());
    return 0;
}
