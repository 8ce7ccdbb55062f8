#include "core/clusterer.h"

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "util/logging.h"

namespace tsp::placement {

namespace {

/** A scored candidate pair. */
struct Candidate
{
    MergeScore score;
    size_t a;
    size_t b;
};

} // namespace

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

    while (cs.clusterCount() > processors) {
        // Step 2: score every cluster pair.
        std::vector<Candidate> candidates;
        const size_t k = cs.clusterCount();
        candidates.reserve(k * (k - 1) / 2);
        for (size_t a = 0; a < k; ++a)
            for (size_t b = a + 1; b < k; ++b)
                candidates.push_back({metric_.score(cs, a, b), a, b});
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate &x, const Candidate &y) {
                      return y.score < x.score;  // descending
                  });

        // Step 3: take the best pair the constraint permits.
        bool merged = false;
        for (const auto &cand : candidates) {
            if (!constraint_.canMerge(cs, cand.a, cand.b))
                continue;
            cs.merge(cand.a, cand.b);
            if (observer_)
                observer_(cs, cand.a, cand.b, cand.score);
            merged = true;
            break;
        }
        if (merged)
            continue;

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
