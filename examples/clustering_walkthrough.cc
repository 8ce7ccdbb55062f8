/**
 * @file
 * Clustering walkthrough: replays the paper's Section 2.1.1 worked
 * example (5 threads onto 2 processors) step by step, printing the
 * partition after every merge the SHARE-REFS engine accepts — the
 * same iterations Figure 1 illustrates, including the thread-balance
 * rejection in the final step.
 *
 * Thread numbering is 0-based here (paper threads 1..5 are 0..4).
 */

#include <cstdio>

#include "core/balance.h"
#include "core/clusterer.h"
#include "core/metrics.h"
#include "stats/pair_matrix.h"
#include "util/format.h"

int
main()
{
    using namespace tsp;
    using namespace tsp::placement;

    // Pairwise shared references shaped like Figure 1: threads 1 and
    // 2 (paper: 2 and 3) share most; 0 and 4 (paper: 1 and 5) next.
    stats::PairMatrix shared(5);
    shared.set(1, 2, 10.0);
    shared.set(0, 4, 8.0);
    shared.set(3, 4, 3.0);
    shared.set(0, 3, 2.0);
    shared.set(0, 1, 2.0);
    shared.set(0, 2, 2.0);
    shared.set(1, 3, 1.0);
    shared.set(2, 3, 1.0);
    shared.set(1, 4, 4.0);
    shared.set(2, 4, 4.0);

    std::printf("SHARE-REFS on 5 threads -> 2 processors "
                "(Section 2.1.1 example)\n\n");
    std::printf("pairwise shared-references matrix:\n      ");
    for (int j = 0; j < 5; ++j)
        std::printf("  t%d ", j);
    std::printf("\n");
    for (int i = 0; i < 5; ++i) {
        std::printf("  t%d  ", i);
        for (int j = 0; j < 5; ++j)
            std::printf("%4.1f ", shared.get(i, j));
        std::printf("\n");
    }
    std::printf("\n");

    // The worked example's sharing-metric calculation: clusters {1,2}
    // and {3} (paper's {2,3} and {4}); the paper computes
    // (shared(2,4)+shared(3,4)) / (2*1).
    {
        ClusterSet cs(5);
        cs.track(shared);
        cs.merge(1, 2);
        double metric = pairAverage(shared, cs, 1, 2);
        std::printf("sharing-metric({t1,t2},{t3}) = (%.1f + %.1f) / "
                    "(2*1) = %.2f\n\n",
                    shared.get(1, 3), shared.get(2, 3), metric);
    }

    CoherenceTrafficMetric metric(shared);  // score = given matrix
    ThreadBalanceConstraint constraint(5, 2);
    GreedyClusterer engine(metric, constraint);

    int iteration = 0;
    engine.onMerge([&](const ClusterSet &cs, size_t, size_t,
                       MergeScore score) {
        std::printf("iteration %d: merged the pair with metric %.2f "
                    "-> partition now ",
                    ++iteration, score.primary);
        for (size_t c = 0; c < cs.clusterCount(); ++c) {
            std::printf("{");
            const auto &members = cs.members(c);
            for (size_t i = 0; i < members.size(); ++i)
                std::printf("%s%u", i ? "," : "", members[i]);
            std::printf("} ");
        }
        std::printf("\n");
    });

    PlacementMap map = engine.run(5, 2);
    std::printf("\nfinal placement: %s\n", map.describe().c_str());
    std::printf("thread balanced: %s\n",
                map.isThreadBalanced() ? "yes" : "no");
    std::printf("\nNote iteration 3: {t1,t2} + {t0,t4} had the top "
                "metric ((2+2+4+4)/4 = 3.00), but a 4-thread cluster "
                "violates thread balance (ceil(5/2) = 3), so the "
                "engine fell through to the next-best feasible pair "
                "({t0,t4} + {t3} at 2.50) — exactly the paper's "
                "step 3.\n");
    return 0;
}
