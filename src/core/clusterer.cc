#include "core/clusterer.h"

#include "util/error.h"
#include "util/logging.h"

namespace tsp::placement {

GreedyClusterer::GreedyClusterer(const SharingMetric &metric,
                                 BalanceConstraint &constraint)
    : metric_(metric), constraint_(constraint)
{}

PlacementMap
GreedyClusterer::run(uint32_t threads, uint32_t processors)
{
    util::fatalIf(processors == 0, "need >= 1 processor");
    ClusterSet cs(threads);

    // If every thread already fits on its own processor, we are done
    // (Section 2.1, step 1).
    if (cs.clusterCount() <= processors)
        return cs.toPlacement(processors);

    metric_.track(cs);
    constraint_.track(cs);
    while (cs.clusterCount() > processors) {
        // Steps 2 and 3 in one scan: the best-scoring pair the
        // constraint permits. Pairs come in (a, b) order and replace
        // the best only with a strictly greater score, so ties go to
        // the lowest pair; the constraint is asked only about a pair
        // that would become the best.
        const size_t k = cs.clusterCount();
        size_t bestA = k, bestB = k;
        MergeScore best;
        for (size_t a = 0; a + 1 < k; ++a) {
            for (size_t b = a + 1; b < k; ++b) {
                const MergeScore s = metric_.score(cs, a, b);
                if ((bestA == k || best < s) &&
                    constraint_.canMerge(cs, a, b)) {
                    best = s;
                    bestA = a;
                    bestB = b;
                }
            }
        }
        if (bestA < k) {
            cs.merge(bestA, bestB);
            if (observer_)
                observer_(cs, bestA, bestB, best);
            continue;
        }

        // Stalled: only the load-balance slack can, and always does,
        // unblock it (see the class comment).
        util::fatalIf(!constraint_.relax(),
                      "clustering infeasible: no merge sequence reaches "
                      "the requested processor count");
        util::debug("clusterer: constraint relaxed");
    }
    return cs.toPlacement(processors);
}

} // namespace tsp::placement
