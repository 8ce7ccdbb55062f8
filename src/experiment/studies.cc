#include "experiment/studies.h"

#include "experiment/parallel.h"
#include "util/error.h"
#include "util/rng.h"

namespace tsp::experiment {

using placement::Algorithm;
using workload::AppId;

namespace {

/**
 * Run @p fanout once over a ParallelRunner and apply the failure
 * policy: in strict mode (no failures sink) rethrow the first
 * (input-order) failure; in degraded mode append every failed job to
 * the sink and let the caller mark cells. A job the cancel token
 * skipped is no failure: it neither throws nor reaches the sink, and
 * the caller marks its cells cancelled. @p cellMillis receives each
 * job's wall time; the caller's onCell still sees every cell.
 */
std::vector<Outcome<RunResult>>
runFanout(Lab &lab, const std::vector<RunJob> &fanout,
          const SweepOptions &options, std::vector<double> &cellMillis)
{
    cellMillis.assign(fanout.size(), 0.0);
    SweepOptions runOptions = options;
    runOptions.onCell = [&](size_t i, const Outcome<RunResult> &outcome,
                            double wallMs) {
        cellMillis[i] = wallMs;
        if (options.onCell)
            options.onCell(i, outcome, wallMs);
    };
    auto outcomes =
        ParallelRunner(lab, runOptions).runAllOutcomes(fanout);
    for (size_t i = 0; i < fanout.size(); ++i) {
        if (outcomes[i].ok() || outcomes[i].cancelled())
            continue;
        if (!options.failures) {
            util::fatal("sweep job " + describeJob(fanout[i]) +
                        " failed: " + outcomes[i].error());
        }
        options.failures->push_back({fanout[i], outcomes[i].error()});
    }
    return outcomes;
}

/**
 * Mark @p row (a SweepRow or Table5Cell) unanswered because @p oc
 * failed or was cancelled; @p cell names the cell @p oc answers when
 * it is not the row's own.
 */
template <typename Row>
void
markUnanswered(Row &row, const Outcome<RunResult> &oc,
               const std::string &cell = "")
{
    (oc.cancelled() ? row.cancelled : row.failed) = true;
    row.error = cell.empty() ? oc.error()
                             : cell +
                                   (oc.cancelled() ? " cancelled: "
                                                   : " failed: ") +
                                   oc.error();
}

/**
 * The placement sweep behind Figures 2-5 and the hierarchy study:
 * every algorithm in @p algs at every standard machine point under
 * every memory system in @p systems, normalized to RANDOM under the
 * same system at the same point.
 *
 * Job layout (it fixes the fan-out schedule and the journal's append
 * order): per (system, point), the RANDOM baseline, then every
 * non-RANDOM algorithm. RANDOM rows reuse the baseline.
 */
std::vector<SweepRow>
placementSweep(Lab &lab, AppId app, const std::vector<Algorithm> &algs,
               const std::vector<MemSystem> &systems,
               const SweepOptions &options)
{
    const auto sweep = standardSweep(
        static_cast<uint32_t>(lab.analysis(app).threadCount()));

    // cellOf[r] is row r's job; baselineOf[r] its RANDOM baseline's.
    std::vector<RunJob> fanout;
    std::vector<size_t> cellOf, baselineOf;
    for (MemSystem ms : systems) {
        for (const MachinePoint &point : sweep) {
            const size_t baseline = fanout.size();
            fanout.push_back({app, Algorithm::Random, point, false, ms});
            for (Algorithm alg : algs) {
                baselineOf.push_back(baseline);
                if (alg == Algorithm::Random) {
                    cellOf.push_back(baseline);
                } else {
                    cellOf.push_back(fanout.size());
                    fanout.push_back({app, alg, point, false, ms});
                }
            }
        }
    }

    std::vector<double> cellMillis;
    auto outcomes = runFanout(lab, fanout, options, cellMillis);

    std::vector<SweepRow> out(cellOf.size());
    for (size_t r = 0; r < out.size(); ++r) {
        const RunJob &job = fanout[cellOf[r]];
        const auto &oc = outcomes[cellOf[r]];
        const auto &baseline = outcomes[baselineOf[r]];
        SweepRow &row = out[r];
        row.memSystem = job.memSystem;
        row.alg = algs[r % algs.size()];
        row.point = job.point;
        row.wallMs = cellMillis[cellOf[r]];
        if (!oc.ok()) {
            markUnanswered(row, oc);
            continue;
        }
        const RunResult &res = oc.value();
        const RunMissSummary misses = res.missSummary();
        row.cycles = res.executionTime;
        row.loadImbalance = res.loadImbalance;
        row.compulsory = misses.compulsory;
        row.intraConflict = misses.intraConflict;
        row.interConflict = misses.interConflict;
        row.invalidation = misses.invalidation;
        row.refs = misses.memRefs;
        row.l2Hits = res.stats.l2Hits;
        row.l2Misses = res.stats.l2Misses;
        row.netQueueingCycles = res.stats.networkQueueingCycles;
        if (!baseline.ok()) {
            // The cell ran but has nothing to normalize to.
            markUnanswered(row, baseline, "RANDOM baseline");
            continue;
        }
        const uint64_t randomCycles = baseline.value().executionTime;
        util::fatalIf(randomCycles == 0,
                      "RANDOM baseline ran for zero cycles");
        row.normalizedToRandom = static_cast<double>(row.cycles) /
                                 static_cast<double>(randomCycles);
    }
    return out;
}

} // namespace

std::vector<SweepRow>
execTimeStudy(Lab &lab, AppId app, const std::vector<Algorithm> &algs,
              const SweepOptions &options)
{
    return placementSweep(lab, app, algs, {MemSystem::Flat1994},
                          options);
}

std::vector<SweepRow>
hierarchyStudy(Lab &lab, AppId app, const std::vector<Algorithm> &algs,
               const SweepOptions &options)
{
    return placementSweep(lab, app, algs, allMemSystems(), options);
}

Table4Row
table4Row(Lab &lab, AppId app)
{
    Table4Row row;
    row.app = workload::appName(app);

    const auto &an = lab.analysis(app);
    auto staticSummary = an.sharedRefs().pairSummary();
    row.staticPairMean = staticSummary.mean();
    row.staticTotal = an.sharedRefs().total();
    row.staticPctOfRefs =
        100.0 * row.staticTotal / static_cast<double>(an.totalRefs());

    const sim::CoherenceProbeResult &probe = lab.coherenceProbe(app);
    auto dynSummary = probe.pairs.pairSummary();
    row.dynamicTotal =
        static_cast<double>(probe.stats.dynamicSharingTraffic());
    row.dynamicPctOfRefs = 100.0 * row.dynamicTotal /
                           static_cast<double>(an.totalRefs());
    row.dynamicPairDevPct = dynSummary.devPercent();
    row.dynamicPairAbsDev = dynSummary.absoluteDeviation();
    row.staticOverDynamic = row.dynamicTotal > 0.0
        ? row.staticTotal / row.dynamicTotal
        : 0.0;
    return row;
}

std::vector<Table4Row>
table4Study(Lab &lab, const std::vector<AppId> &apps, unsigned jobs)
{
    // The row math is trivial; the traces + analysis + coherence
    // probe behind it are not. Materialize those one app per thread,
    // then fold the rows serially in input order.
    util::parallelFor(jobs, apps.size(), [&](size_t i) {
        lab.warmup(apps[i], /*coherence=*/true);
    });
    std::vector<Table4Row> rows;
    rows.reserve(apps.size());
    for (AppId app : apps)
        rows.push_back(table4Row(lab, app));
    return rows;
}

std::vector<Table5Cell>
table5Study(Lab &lab, AppId app, const SweepOptions &options)
{
    const analysis::StaticAnalysis &an = lab.analysis(app);
    const auto sweep =
        standardSweep(static_cast<uint32_t>(an.threadCount()));
    const auto &pool = placement::staticSharingAlgorithmsWithLB();

    // Per point: the LOAD-BAL baseline, the pool, COHERENCE-TRAFFIC.
    const size_t stride = pool.size() + 2;
    std::vector<RunJob> fanout;
    fanout.reserve(sweep.size() * stride);
    for (const MachinePoint &point : sweep) {
        fanout.push_back({app, Algorithm::LoadBal, point, true});
        for (Algorithm alg : pool)
            fanout.push_back({app, alg, point, true});
        fanout.push_back({app, Algorithm::CoherenceTraffic, point, true});
    }

    std::vector<double> cellMillis;
    auto outcomes = runFanout(lab, fanout, options, cellMillis);

    std::vector<Table5Cell> out;
    out.reserve(sweep.size());
    for (size_t p = 0; p < sweep.size(); ++p) {
        Table5Cell cell;
        cell.app = workload::appName(app);
        cell.processors = sweep[p].processors;

        const auto &loadBalOc = outcomes[p * stride];
        if (!loadBalOc.ok()) {
            markUnanswered(cell, loadBalOc, "LOAD-BAL baseline");
            out.push_back(cell);
            continue;
        }
        const RunResult &loadBal = loadBalOc.value();
        util::fatalIf(loadBal.executionTime == 0,
                      "LOAD-BAL baseline ran for zero cycles");

        double best = 0.0;
        bool first = true;
        const Outcome<RunResult> *skipped = nullptr;
        for (size_t a = 0; a < pool.size(); ++a) {
            const auto &oc = outcomes[p * stride + 1 + a];
            if (oc.cancelled())
                skipped = &oc;
            if (!oc.ok())
                continue;  // failed algorithm: out of the contest
            double norm =
                static_cast<double>(oc.value().executionTime) /
                static_cast<double>(loadBal.executionTime);
            if (first || norm < best) {
                best = norm;
                cell.bestStatic = pool[a];
                first = false;
            }
        }
        if (skipped) {
            // A skipped algorithm might have won: no contest yet.
            markUnanswered(cell, *skipped, "a static sharing algorithm");
            out.push_back(cell);
            continue;
        }
        if (first) {
            cell.failed = true;
            cell.error = "every static sharing algorithm failed";
            out.push_back(cell);
            continue;
        }
        cell.bestStaticVsLoadBal = best;

        const auto &cohOc = outcomes[p * stride + stride - 1];
        if (!cohOc.ok()) {
            markUnanswered(cell, cohOc, "COHERENCE-TRAFFIC");
        } else {
            cell.coherenceVsLoadBal =
                static_cast<double>(cohOc.value().executionTime) /
                static_cast<double>(loadBal.executionTime);
        }
        out.push_back(cell);
    }
    return out;
}

analysis::CharacteristicsRow
table2Row(Lab &lab, AppId app)
{
    util::Rng rng(0xC0FFEEull + static_cast<uint64_t>(app));
    return analysis::computeCharacteristics(lab.analysis(app), rng);
}

} // namespace tsp::experiment
