/**
 * @file
 * Figure 5 — cache miss components (compulsory, intra-thread
 * conflict, inter-thread conflict, invalidation) across placement
 * algorithms and machine configurations.
 *
 * Paper's shape: decreasing threads/processor (more processors)
 * reduces conflict misses (effectively larger cache) and shifts them
 * from inter-thread to intra-thread; compulsory and invalidation
 * misses stay essentially constant across ALL placement algorithms.
 */

#include <cstdio>

#include "bench_common.h"
#include "experiment/report.h"
#include "sim/results.h"
#include "util/table.h"

int
main()
{
    using namespace tsp;
    using placement::Algorithm;
    experiment::Lab lab(workload::defaultScale());
    workload::AppId app = workload::AppId::Water;

    bench::banner("Figure 5: Cache miss components for Water (typical "
                  "of all applications)",
                  lab, app);

    const std::vector<Algorithm> algs = {
        Algorithm::Random,   Algorithm::ShareRefs,
        Algorithm::ShareAddr, Algorithm::MinPriv,
        Algorithm::MinInvs,  Algorithm::MaxWrites,
        Algorithm::MinShare, Algorithm::LoadBal,
    };
    bench::WallTimer timer;
    auto rows = experiment::execTimeStudy(lab, app, algs);
    bench::printWallClock("Figure 5 sweep", timer);

    util::TextTable table("Figure 5 (miss counts; comp+inval is the "
                          "component sharing-based placement targets)");
    table.setHeader({"config", "algorithm", "compulsory",
                     "intra-conflict", "inter-conflict", "invalidation",
                     "comp+inval", "miss rate"});
    std::string lastLabel;
    for (const auto &row : rows) {
        std::string label = row.point.label();
        if (label != lastLabel && !lastLabel.empty())
            table.addSeparator();
        lastLabel = label;
        table.addRow({
            label,
            placement::algorithmName(row.alg),
            std::to_string(row.compulsory),
            std::to_string(row.intraConflict),
            std::to_string(row.interConflict),
            std::to_string(row.invalidation),
            std::to_string(row.compulsory + row.invalidation),
            util::fmtPercent(static_cast<double>(row.totalMisses()) /
                                 static_cast<double>(row.refs),
                             2),
        });
    }
    table.print();
    if (auto dir = experiment::outputDirectory()) {
        std::string path = *dir + "/fig5_miss_components.csv";
        experiment::writeMissComponentsCsv(path, rows);
        std::printf("(wrote %s)\n", path.c_str());
    }
    std::printf("\npaper reports: compulsory and invalidation misses "
                "remain fairly constant across all placement "
                "algorithms; conflict misses fall and shift "
                "inter->intra as threads/processor decreases.\n");
    return 0;
}
