/**
 * @file
 * Reproduction checklist: runs every headline claim of the paper and
 * prints PASS/WARN with the measured values — the one-command answer
 * to "does this reproduction still hold?". Exits non-zero if any
 * claim fails.
 *
 * Claims (see DESIGN.md's expected-shapes list):
 *  1. Load balancing drives execution time: LOAD-BAL never loses to
 *     RANDOM and wins >= 10% somewhere on the high-deviation app (FFT).
 *  2. Sharing-based placement never meaningfully beats LOAD-BAL.
 *  3. Compulsory + invalidation misses are invariant across placement
 *     algorithms (spread a negligible share of references).
 *  4. Dynamic coherence traffic is orders of magnitude below static
 *     sharing counts for every application.
 *  5. With an 8 MB cache, conflict misses vanish and the best
 *     sharing-based algorithm still only matches LOAD-BAL.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/studies.h"
#include "sim/results.h"
#include "util/format.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/suite.h"

namespace {

using namespace tsp;
using placement::Algorithm;
using workload::AppId;

struct Claim
{
    std::string name;
    std::string measured;
    bool pass = false;
};

} // namespace

int
main()
{
    const uint32_t scale = workload::defaultScale();
    const unsigned jobs = tsp::util::ThreadPool::defaultJobs();
    experiment::Lab lab(scale);
    std::vector<Claim> claims;

    // Materialize every app's traces/analysis/probe across the pool
    // up front; each claim below then fans its runs out as well.
    bench::WallTimer total;
    experiment::ParallelRunner(lab, jobs)
        .warmup(workload::allApps(), /*coherence=*/true);
    bench::printWallClock("warmup (14 apps)", total, jobs);

    // ---- 1 & 2: execution-time ordering on FFT -----------------------
    {
        auto points = experiment::execTimeStudy(
            lab, AppId::FFT,
            {Algorithm::LoadBal, Algorithm::ShareRefs,
             Algorithm::MaxWrites});
        double loadBalWorst = 0.0, loadBalBest = 10.0;
        double sharingBest = 10.0;
        for (const auto &pt : points) {
            if (pt.alg == Algorithm::LoadBal) {
                loadBalWorst =
                    std::max(loadBalWorst, pt.normalizedToRandom);
                loadBalBest =
                    std::min(loadBalBest, pt.normalizedToRandom);
            } else {
                sharingBest =
                    std::min(sharingBest, pt.normalizedToRandom);
            }
        }
        claims.push_back(
            {"LOAD-BAL never loses to RANDOM (FFT)",
             "worst " + util::fmtFixed(loadBalWorst, 3),
             loadBalWorst < 1.05});
        claims.push_back(
            {"LOAD-BAL wins >=10% somewhere (FFT)",
             "best " + util::fmtFixed(loadBalBest, 3),
             loadBalBest < 0.90});
        claims.push_back(
            {"sharing-based never beats LOAD-BAL (FFT)",
             "sharing best " + util::fmtFixed(sharingBest, 3) +
                 " vs LOAD-BAL best " + util::fmtFixed(loadBalBest, 3),
             sharingBest >= loadBalBest - 0.02});
    }

    // ---- 3: miss-component invariance (Water) ------------------------
    {
        auto rows = experiment::execTimeStudy(
            lab, AppId::Water,
            {Algorithm::Random, Algorithm::ShareRefs,
             Algorithm::MinShare, Algorithm::LoadBal});
        double worstSpread = 0.0;
        std::map<std::string, std::pair<double, double>> band;
        for (const auto &row : rows) {
            auto &[lo, hi] = band
                                 .try_emplace(row.point.label(), 1e18,
                                              0.0)
                                 .first->second;
            double v =
                static_cast<double>(row.compulsory + row.invalidation);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        double refs = static_cast<double>(rows.front().refs);
        for (const auto &[label, range] : band) {
            (void)label;
            worstSpread = std::max(
                worstSpread, (range.second - range.first) / refs);
        }
        claims.push_back(
            {"compulsory+invalidation invariant across placements",
             "worst spread " + util::fmtPercent(worstSpread, 3) +
                 " of refs",
             worstSpread < 0.005});
    }

    // ---- 4: static >> dynamic for all fourteen apps ------------------
    {
        double worstRatio = 1e18, worstPct = 0.0;
        std::string worstApp;
        for (const auto &row :
             experiment::table4Study(lab, workload::allApps(), jobs)) {
            if (row.staticOverDynamic < worstRatio) {
                worstRatio = row.staticOverDynamic;
                worstApp = row.app;
            }
            worstPct = std::max(worstPct, row.dynamicPctOfRefs);
        }
        claims.push_back(
            {"dynamic coherence traffic >=10x below static (14 apps)",
             "worst " + util::fmtRatio(worstRatio, 0) + " (" +
                 worstApp + ")",
             worstRatio >= 10.0});
        claims.push_back(
            {"dynamic traffic small share of refs (14 apps)",
             "worst " + util::fmtFixed(worstPct, 2) + "%",
             worstPct < 5.0});
    }

    // ---- 5: the 8 MB cache study (Water) -----------------------------
    {
        experiment::MachinePoint pt{4, 2};
        auto inf =
            lab.run(AppId::Water, Algorithm::Random, pt, true).stats;
        bool noConflicts =
            inf.totalMissCount(sim::MissKind::IntraConflict) == 0 &&
            inf.totalMissCount(sim::MissKind::InterConflict) == 0;
        claims.push_back({"8 MB cache eliminates conflict misses",
                          noConflicts ? "0 conflicts" : "conflicts!",
                          noConflicts});

        auto cells = experiment::table5Study(lab, AppId::Water);
        double best = 10.0;
        for (const auto &cell : cells)
            best = std::min(best, cell.bestStaticVsLoadBal);
        claims.push_back(
            {"best sharing ~ LOAD-BAL at 8 MB (Water)",
             "best " + util::fmtFixed(best, 3) + "x LOAD-BAL",
             best > 0.90});
    }

    // ---- report -------------------------------------------------------
    bench::printWallClock("all claims", total, jobs);
    std::printf("Reproduction checklist (scale 1/%u, %u jobs)\n\n",
                scale, jobs);
    util::TextTable table;
    table.setHeader({"claim", "measured", "status"});
    bool allPass = true;
    for (const auto &claim : claims) {
        table.addRow({claim.name, claim.measured,
                      claim.pass ? "PASS" : "WARN"});
        allPass &= claim.pass;
    }
    table.print();
    std::printf("\n%s\n", allPass
                              ? "all headline claims reproduced"
                              : "SOME CLAIMS DID NOT REPRODUCE");
    return allPass ? 0 : 1;
}
