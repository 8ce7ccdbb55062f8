#include "experiment/chaos.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

#include "experiment/checkpoint.h"
#include "experiment/configs.h"
#include "experiment/parallel.h"
#include "experiment/report.h"
#include "sim/batch_machine.h"
#include "trace/chunk_source.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/format.h"
#include "util/logging.h"
#include "workload/stream.h"

namespace tsp::experiment::chaos {

namespace {

/** The job set every scenario runs: two algorithms x two points. */
std::vector<RunJob>
scenarioJobs(const Options &opt, uint32_t threads)
{
    std::vector<MachinePoint> points = standardSweep(threads);
    if (points.size() > 2)
        points.resize(2);
    std::vector<RunJob> jobs;
    for (placement::Algorithm alg :
         {placement::Algorithm::LoadBal,
          placement::Algorithm::ShareRefs}) {
        for (const MachinePoint &pt : points)
            jobs.push_back({opt.app, alg, pt, false});
    }
    return jobs;
}

/**
 * Serialize every outcome's load-bearing fields. Bit-identical runs
 * produce byte-identical fingerprints; anything else diverges.
 */
std::string
fingerprint(const std::vector<RunJob> &jobs,
            const std::vector<Outcome<RunResult>> &outcomes)
{
    std::ostringstream os;
    for (size_t i = 0; i < jobs.size(); ++i) {
        os << describeJob(jobs[i]) << " => ";
        if (!outcomes[i].ok()) {
            os << "FAILED(" << outcomes[i].error() << ")\n";
            continue;
        }
        const RunResult &r = outcomes[i].value();
        os << "t=" << r.executionTime
           << " imb=" << util::hexBits(r.loadImbalance) << " assign=";
        for (uint32_t proc : r.placement.assignment())
            os << proc << ',';
        const sim::SimStats &s = r.stats;
        os << " refs=" << s.totalMemRefs() << " hits=" << s.totalHits();
        for (size_t k = 0; k < sim::numMissKinds; ++k) {
            os << " m" << k << '='
               << s.totalMissCount(static_cast<sim::MissKind>(k));
        }
        os << " inv=" << s.totalInvalidationsSent()
           << " upg=" << s.totalUpgrades()
           << " shc=" << s.sharingCompulsoryMisses << '\n';
    }
    return os.str();
}

/**
 * Streaming batched leg: two placement arms advance in lockstep over
 * a chunked, bounded-memory trace stream — trace.chunk_refill and
 * batch.lane live only on this path. A faulted lane degrades to an
 * error line while its sibling keeps its exact statistics; the digest
 * is folded into the scenario fingerprint so recovery legs prove the
 * streamed results are bit-stable too.
 */
std::string
streamedBatchFingerprint(Lab &lab, const Options &opt,
                         uint32_t threads)
{
    std::vector<MachinePoint> points = standardSweep(threads);
    const MachinePoint &pt = points.front();
    const placement::Algorithm algs[] = {
        placement::Algorithm::LoadBal,
        placement::Algorithm::ShareRefs};

    std::vector<sim::BatchLane> lanes;
    for (placement::Algorithm alg : algs) {
        lanes.push_back(
            {lab.configFor(opt.app, pt, false),
             lab.placementFor(opt.app, alg, pt.processors)});
    }

    workload::AppStreamFactory factory(workload::profile(opt.app),
                                       lab.scale());
    trace::SharedTraceStream stream(factory, lanes.size(),
                                    /*chunkEvents=*/2048);
    sim::BatchMachine machine(std::move(lanes), stream);
    std::vector<sim::LaneResult> results = machine.run();

    std::ostringstream os;
    for (size_t i = 0; i < results.size(); ++i) {
        os << "stream/" << placement::algorithmName(algs[i]) << '@'
           << pt.label() << " => ";
        if (!results[i].ok) {
            os << "FAILED(" << results[i].error << ")\n";
            continue;
        }
        const sim::SimStats &s = results[i].stats;
        os << "t=" << s.executionTime()
           << " refs=" << s.totalMemRefs()
           << " hits=" << s.totalHits();
        for (size_t k = 0; k < sim::numMissKinds; ++k) {
            os << " m" << k << '='
               << s.totalMissCount(static_cast<sim::MissKind>(k));
        }
        os << " inv=" << s.totalInvalidationsSent()
           << " upg=" << s.totalUpgrades() << '\n';
    }
    return os.str();
}

/**
 * The end-to-end operation each matrix cell stresses: a fresh Lab (so
 * lab.memo_init is on the path), a checkpointed parallel sweep, a
 * streamed lockstep batch, a trace save/load roundtrip, and a
 * failure-report CSV. Returns the scenario's fingerprint; throws
 * whatever the armed fault makes escape.
 */
std::string
runScenario(const Options &opt, const std::string &checkpointPath)
{
    Lab lab(opt.scale);
    const trace::TraceSet &traces = lab.traces(opt.app);
    std::vector<RunJob> jobs = scenarioJobs(
        opt, static_cast<uint32_t>(traces.threadCount()));

    Checkpoint checkpoint(checkpointPath, opt.scale);
    std::vector<JobFailure> failures;
    SweepOptions options;
    options.jobs = opt.jobs;
    options.checkpoint = &checkpoint;
    options.failures = &failures;
    ParallelRunner runner(lab, options);
    auto outcomes = runner.runAllOutcomes(jobs);

    // Trace IO roundtrip (trace.write / trace.read / trace.decode).
    std::string tracePath = opt.workDir + "/chaos_trace.tspt";
    trace::saveFile(traces, tracePath);
    trace::TraceSet loaded = trace::loadFile(tracePath);
    util::fatalIf(loaded.threadCount() != traces.threadCount(),
                  "chaos trace roundtrip lost threads");

    // Report emission (report.write).
    writeFailuresCsv(opt.workDir + "/chaos_failures.csv", failures);

    // Streamed lockstep batch (trace.chunk_refill / batch.lane).
    std::string print =
        fingerprint(jobs, outcomes) +
        streamedBatchFingerprint(
            lab, opt, static_cast<uint32_t>(traces.threadCount()));

    // Higher-layer leg (the svc daemon/store sites), when plugged in.
    if (opt.extension.run)
        print += opt.extension.run(opt.workDir);
    return print;
}

/** Delete the extension leg's on-disk state, if one is plugged in. */
void
resetExtension(const Options &opt)
{
    if (opt.extension.reset)
        opt.extension.reset(opt.workDir);
}

} // namespace

std::string
CellResult::describe() const
{
    std::string line = spec.describe();
    line += passed() ? " PASS" : " FAIL";
    if (passed())
        line += degradedCleanly ? " (degraded cleanly)"
                                : " (resumed from checkpoint)";
    else if (!note.empty())
        line += " — " + note;
    return line;
}

std::string
baselineFingerprint(const Options &options)
{
    std::string path = options.workDir + "/chaos_baseline.tspc";
    std::remove(path.c_str());
    resetExtension(options);
    std::string print = runScenario(options, path);
    std::remove(path.c_str());
    resetExtension(options);
    return print;
}

MatrixResult
runMatrix(const Options &opt)
{
    fault::disarm();
    MatrixResult matrix;
    matrix.baseline = baselineFingerprint(opt);

    std::string checkpointPath = opt.workDir + "/chaos_cell.tspc";
    for (const fault::SiteInfo &site : fault::Registry::catalog()) {
        for (fault::Kind kind : fault::allKinds()) {
            CellResult cell;
            cell.spec = {site.name, 1, false, kind};

            // Fresh journal per cell so recovery is attributable.
            // The extension's state is reset here too, but NOT
            // between the faulted run and the recovery leg — the
            // recovery leg resumes over whatever survived, proving
            // the extension's artifacts are crash-resumable.
            std::remove(checkpointPath.c_str());
            resetExtension(opt);

            uint64_t injectedBefore =
                fault::Registry::instance().injectedCount();
            fault::Registry::instance().arm(cell.spec);
            try {
                runScenario(opt, checkpointPath);
                cell.degradedCleanly = true;
            } catch (const std::exception &e) {
                // Not clean — leg 2 of the trifecta now rests on the
                // checkpoint the run left behind.
                cell.escapedError = e.what();
            }
            fault::disarm();
            cell.fired = fault::Registry::instance().injectedCount() >
                         injectedBefore;

            if (!cell.fired) {
                cell.note = "armed site never fired (catalog/wiring "
                            "drift?)";
            } else {
                // Leg 3: fault-free re-run over whatever survived must
                // reproduce the baseline bit for bit.
                try {
                    std::string resumed =
                        runScenario(opt, checkpointPath);
                    cell.recoveredIdentical =
                        resumed == matrix.baseline;
                    if (!cell.recoveredIdentical)
                        cell.note = "resumed results diverge from the "
                                    "baseline";
                } catch (const std::exception &e) {
                    cell.note = std::string(
                                    "fault-free resume threw: ") +
                                e.what();
                }
            }

            if (opt.verbose)
                util::inform("[chaos] " + cell.describe());
            matrix.cells.push_back(std::move(cell));
        }
    }

    std::remove(checkpointPath.c_str());
    resetExtension(opt);
    return matrix;
}

} // namespace tsp::experiment::chaos
