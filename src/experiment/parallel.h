/**
 * @file
 * The parallel experiment engine: fans the cross-product of
 * (application x placement algorithm x machine point) simulation jobs
 * across a util::ThreadPool and reassembles the results in
 * deterministic input order.
 *
 * Determinism guarantee: every job is independent (Lab seeds each run
 * from (app, algorithm, processors) alone, and the shared caches are
 * read-only once materialized), so results are bit-identical to the
 * serial path for any pool width — ordering is the only hazard, and
 * runAll() removes it by indexing results by input position.
 *
 * Robustness guarantees (runAllOutcomes):
 *  - fault isolation — a job throwing FatalError (bad cell
 *    configuration) becomes a failed Outcome; every other cell's
 *    result is unaffected and bit-identical to a clean run.
 *    PanicError (a library bug) still fails the whole sweep fast;
 *  - checkpoint/resume — with a Checkpoint attached, journaled cells
 *    are replayed instead of simulated and fresh results are
 *    journaled as they complete, so a killed sweep re-runs only the
 *    missing cells;
 *  - watchdog — with a job deadline set, cells running past it are
 *    flagged (warn + SweepStats) without being killed;
 *  - cancellation — with a CancelToken attached, a tripped token stops
 *    new cells from starting; finished cells stay journaled and the
 *    skipped cells report failed Outcomes, keeping the sweep
 *    resumable after SIGINT/SIGTERM or a watchdog escalation.
 */

#ifndef TSP_EXPERIMENT_PARALLEL_H
#define TSP_EXPERIMENT_PARALLEL_H

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "experiment/lab.h"
#include "experiment/outcome.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace tsp::experiment {

class Checkpoint;

/** One simulation job of a fan-out. */
struct RunJob
{
    workload::AppId app{};
    placement::Algorithm alg{};
    MachinePoint point;
    bool infiniteCache = false;

    /** Memory-system scenario (Flat1994 = the paper's machine). */
    MemSystem memSystem = MemSystem::Flat1994;
};

/** Human-readable job identity, e.g. "Water/SHARE-REFS@4p x 2c". */
std::string describeJob(const RunJob &job);

/**
 * Default lane count for batched lockstep simulation: the TSP_BATCH
 * environment variable, else 1 (batching off). Invalid values read
 * as 1.
 */
unsigned defaultBatchLanes();

/** One failed cell of a sweep, for failure summaries. */
struct JobFailure
{
    RunJob job;
    std::string error;

    /** "Water/SHARE-REFS@4p x 2c: fatal: ..." */
    std::string describe() const;
};

/** Counters of one runAll/runAllOutcomes invocation. */
struct SweepStats
{
    size_t total = 0;           //!< jobs requested (incl. duplicates)
    size_t unique = 0;          //!< deduplicated jobs
    size_t executed = 0;        //!< simulated this invocation
    size_t fromCheckpoint = 0;  //!< replayed from the journal
    size_t failed = 0;          //!< unique jobs that failed
    size_t watchdogFlagged = 0; //!< jobs that ran past the deadline
    size_t cancelled = 0;       //!< unique jobs skipped by cancellation
};

/** Tuning and robustness knobs of a sweep. */
struct SweepOptions
{
    /** Pool width; 1 (or 0) = serial on the calling thread. */
    unsigned jobs = util::ThreadPool::defaultJobs();

    /**
     * Lanes per batched lockstep simulation (sim::BatchMachine).
     * Cells of the same application are grouped, up to this many per
     * group, and advanced in lockstep over the shared traces — the
     * trace pages stream through the cache once per group instead of
     * once per cell. 1 (or 0) disables batching. Results are
     * bit-identical either way; per-cell robustness semantics
     * (checkpoint, fault isolation, cancellation) are preserved
     * lane by lane.
     */
    unsigned batch = defaultBatchLanes();

    /** Journal completed cells here and replay previous ones. */
    Checkpoint *checkpoint = nullptr;

    /**
     * When non-null, a job throwing FatalError degrades to a failed
     * Outcome recorded here (studies mark the cell failed); when
     * null, the studies' strict mode rethrows the first failure.
     */
    std::vector<JobFailure> *failures = nullptr;

    /** Filled with the sweep's counters when non-null. */
    SweepStats *statsOut = nullptr;

    /**
     * Filled with each job's simulation wall time in milliseconds, in
     * input order, when non-null. Cells replayed from the checkpoint
     * (and failed cells) report 0.0; duplicate jobs copy the executed
     * cell's time. Purely observational — never feeds results.
     */
    std::vector<double> *cellMillisOut = nullptr;

    /** Flag jobs running longer than this; zero disables. */
    std::chrono::milliseconds jobDeadline{0};

    /**
     * Cooperative cancellation: when non-null, the sweep polls this
     * token before starting each cell. Once the token trips (a signal
     * handler, the watchdog, another thread), cells not yet started
     * become failed Outcomes ("sweep cancelled...") while in-flight
     * cells run to completion and are journaled normally — so a
     * cancelled sweep is always cleanly resumable.
     */
    const util::CancelToken *cancel = nullptr;

    /**
     * Chaos/test hook invoked before each unique job executes; throw
     * from it to simulate that cell failing. Never set in production
     * paths.
     */
    std::function<void(const RunJob &)> faultInjector = {};
};

/**
 * Fans independent Lab::run jobs over a fixed-width worker pool.
 * `jobs == 1` (or 0) executes inline on the calling thread — the
 * serial path — which the determinism tests diff against wide runs.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(
        Lab &lab, unsigned jobs = util::ThreadPool::defaultJobs());

    /** Configure from a SweepOptions (checkpoint, deadline, hooks). */
    ParallelRunner(Lab &lab, const SweepOptions &options);

    /** Effective pool width (>= 1). */
    unsigned jobs() const { return options_.jobs; }

    /**
     * Run every job and return per-job outcomes in input order.
     * Identical jobs (same app, algorithm, point, cache mode) are
     * simulated once and the outcome is replicated, matching the
     * serial drivers that reuse baseline runs. A job throwing
     * FatalError (or any std::exception other than PanicError) yields
     * a failed Outcome; PanicError aborts the sweep (remaining jobs
     * are skipped and the panic is rethrown).
     */
    std::vector<Outcome<RunResult>>
    runAllOutcomes(const std::vector<RunJob> &jobs);

    /**
     * Strict variant: run every job and return the results in input
     * order, throwing FatalError on the first (input-order) failed
     * job. Completed results are still journaled to the checkpoint
     * before the throw, so a failed sweep remains resumable.
     */
    std::vector<RunResult> runAll(const std::vector<RunJob> &jobs);

    /** Counters of the most recent runAll/runAllOutcomes call. */
    const SweepStats &lastSweepStats() const { return stats_; }

    /**
     * Pre-materialize the per-app caches (traces, analysis, and the
     * coherence probe when @p coherence) for all @p apps, one app per
     * worker. Concurrent-safe and idempotent.
     */
    void warmup(const std::vector<workload::AppId> &apps,
                bool coherence = false);

  private:
    Lab &lab_;
    SweepOptions options_;
    SweepStats stats_;
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_PARALLEL_H
