#include "sample/bbv.h"

#include <cmath>
#include <limits>

#include "util/error.h"
#include "util/rng.h"

namespace tsp::sample {

namespace {

double
sqDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        double t = a[i] - b[i];
        d += t * t;
    }
    return d;
}

} // namespace

uint64_t
BbvProfile::totalRefs() const
{
    uint64_t total = 0;
    for (uint64_t c : windowRefCounts)
        total += c;
    return total;
}

BbvProfile
bbvProfile(trace::StreamFactory &factory, uint64_t windowRefs,
           uint32_t dims, unsigned blockShift)
{
    util::fatalIf(windowRefs == 0, "BBV window size must be positive");
    util::fatalIf(dims == 0, "BBV dimensionality must be positive");

    BbvProfile p;
    p.windowRefs = windowRefs;
    p.dims = dims;
    p.threadRefs.assign(factory.threadCount(), 0);

    // Raw bucket counts per window; normalized below.
    std::vector<std::vector<uint64_t>> counts;
    std::vector<trace::TraceEvent> batch;
    for (uint32_t tid = 0; tid < factory.threadCount(); ++tid) {
        auto producer = factory.openProducer(tid);
        uint64_t refs = 0;
        for (;;) {
            batch.clear();
            if (!producer->produce(batch))
                break;
            for (const trace::TraceEvent &e : batch) {
                if (!e.isMemRef())
                    continue;
                size_t w = static_cast<size_t>(refs / windowRefs);
                if (w >= counts.size())
                    counts.resize(w + 1,
                                  std::vector<uint64_t>(dims, 0));
                uint64_t block = e.address() >> blockShift;
                ++counts[w][util::mix64(block) % dims];
                ++refs;
            }
        }
        p.threadRefs[tid] = refs;
    }

    p.fingerprints.resize(counts.size());
    p.windowRefCounts.assign(counts.size(), 0);
    for (size_t w = 0; w < counts.size(); ++w) {
        uint64_t total = 0;
        for (uint64_t c : counts[w])
            total += c;
        p.windowRefCounts[w] = total;
        p.fingerprints[w].assign(p.dims, 0.0);
        if (total == 0)
            continue;
        for (uint32_t d = 0; d < p.dims; ++d)
            p.fingerprints[w][d] = static_cast<double>(counts[w][d]) /
                                   static_cast<double>(total);
    }
    return p;
}

Clustering
clusterWindows(const BbvProfile &profile, uint32_t k, uint32_t maxIters,
               uint32_t preferRepAtLeast)
{
    const uint32_t n = profile.windows();
    util::fatalIf(n == 0, "cannot cluster an empty BBV profile");
    if (k > n)
        k = n;
    util::fatalIf(k == 0, "cluster count must be positive");

    const auto &fp = profile.fingerprints;
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);

    // Farthest-point seeding from window 0: deterministic, spreads
    // the initial centroids across the phase space.
    centroids.push_back(fp[0]);
    std::vector<double> nearest(n,
                                std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        uint32_t far = 0;
        double farDist = -1.0;
        for (uint32_t w = 0; w < n; ++w) {
            double d = sqDistance(fp[w], centroids.back());
            if (d < nearest[w])
                nearest[w] = d;
            if (nearest[w] > farDist) {
                farDist = nearest[w];
                far = w;
            }
        }
        centroids.push_back(fp[far]);
    }

    Clustering out;
    out.assignment.assign(n, 0);
    for (uint32_t iter = 0; iter < maxIters; ++iter) {
        bool changed = false;
        for (uint32_t w = 0; w < n; ++w) {
            uint32_t best = 0;
            double bestDist = std::numeric_limits<double>::max();
            for (uint32_t c = 0; c < k; ++c) {
                double d = sqDistance(fp[w], centroids[c]);
                if (d < bestDist) {
                    bestDist = d;
                    best = c;
                }
            }
            if (out.assignment[w] != best) {
                out.assignment[w] = best;
                changed = true;
            }
        }
        if (!changed && iter > 0)
            break;

        // Recompute centroids; an emptied cluster reseeds to the
        // window farthest from its current centroid assignment.
        for (uint32_t c = 0; c < k; ++c) {
            std::vector<double> mean(profile.dims, 0.0);
            uint64_t members = 0;
            for (uint32_t w = 0; w < n; ++w) {
                if (out.assignment[w] != c)
                    continue;
                ++members;
                for (uint32_t d = 0; d < profile.dims; ++d)
                    mean[d] += fp[w][d];
            }
            if (members == 0) {
                uint32_t far = 0;
                double farDist = -1.0;
                for (uint32_t w = 0; w < n; ++w) {
                    double d = sqDistance(
                        fp[w], centroids[out.assignment[w]]);
                    if (d > farDist) {
                        farDist = d;
                        far = w;
                    }
                }
                centroids[c] = fp[far];
                continue;
            }
            for (uint32_t d = 0; d < profile.dims; ++d)
                mean[d] /= static_cast<double>(members);
            centroids[c] = std::move(mean);
        }
    }

    // Drop empty clusters and pick representatives: the member window
    // nearest the final centroid (ties -> lowest window index).
    // Members below preferRepAtLeast only represent a cluster when it
    // has no later member: a window with no room for its warmup
    // prefix would fold uncorrected cold-start cost into the whole
    // phase's weight.
    std::vector<uint32_t> remap(k, 0);
    for (uint32_t c = 0; c < k; ++c) {
        uint32_t rep = n, repEarly = n;
        double repDist = std::numeric_limits<double>::max();
        double repEarlyDist = std::numeric_limits<double>::max();
        uint64_t weight = 0;
        for (uint32_t w = 0; w < n; ++w) {
            if (out.assignment[w] != c)
                continue;
            weight += profile.windowRefCounts[w];
            double d = sqDistance(fp[w], centroids[c]);
            if (w >= preferRepAtLeast) {
                if (d < repDist) {
                    repDist = d;
                    rep = w;
                }
            } else if (d < repEarlyDist) {
                repEarlyDist = d;
                repEarly = w;
            }
        }
        if (rep == n)
            rep = repEarly;
        if (rep == n)
            continue;  // empty cluster after the final sweep
        remap[c] = static_cast<uint32_t>(out.representative.size());
        out.representative.push_back(rep);
        out.weightRefs.push_back(weight);
    }
    for (uint32_t w = 0; w < n; ++w)
        out.assignment[w] = remap[out.assignment[w]];
    return out;
}

} // namespace tsp::sample
