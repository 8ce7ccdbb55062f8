/**
 * @file
 * The parallel experiment engine: fans the cross-product of
 * (application x placement algorithm x machine point) cells across
 * util::parallelFor and reassembles the results in deterministic
 * input order.
 *
 * One simulation per distinct machine: a cell's RunResult is a pure
 * function of the application's trace, the SimConfig and the
 * placement's thread-to-processor map, and the placement algorithms
 * often agree. runAllOutcomes() therefore prepares every cell first
 * (configuration, and a placement computed once per (app, algorithm,
 * processors)), groups the cells by (app, config, placement), and
 * simulates each group once; every cell of the group gets the result
 * and is journaled under its own key. Nothing is cached across calls.
 *
 * Determinism guarantee: every cell is independent (Lab seeds each
 * placement from (app, algorithm, processors) alone, and the shared
 * caches are read-only once materialized), so results are
 * bit-identical to the serial path for any width — ordering is the
 * only hazard, and runAll() removes it by indexing results by input
 * position.
 *
 * Robustness guarantees (runAllOutcomes):
 *  - fault isolation — a cell throwing FatalError (bad cell
 *    configuration) becomes a failed Outcome; every other cell's
 *    result is unaffected and bit-identical to a clean run, also when
 *    it would have shared the failed cell's simulation. PanicError (a
 *    library bug) still fails the whole sweep fast;
 *  - checkpoint/resume — with a Checkpoint attached, journaled cells
 *    are replayed instead of simulated and fresh results are
 *    journaled as they complete, so a killed sweep re-runs only the
 *    missing cells;
 *  - watchdog — with a job deadline set, cell preparations and
 *    simulations running past it are flagged (warn + SweepStats)
 *    without being killed;
 *  - cancellation — with a CancelToken attached, a tripped token stops
 *    new cells from starting; finished cells stay journaled and the
 *    skipped cells report failed Outcomes, keeping the sweep
 *    resumable after SIGINT/SIGTERM or a deadline.
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
#include "util/parallel_for.h"

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
    size_t executed = 0;        //!< unique jobs answered fresh
    size_t fromCheckpoint = 0;  //!< replayed from the journal
    size_t failed = 0;          //!< unique jobs that failed
    size_t watchdogFlagged = 0; //!< preparations and simulations
                                //!< that ran past the deadline
    size_t cancelled = 0;       //!< unique jobs skipped by cancellation
    size_t placements = 0;      //!< placements computed
    size_t simulated = 0;       //!< distinct machines simulated
    double simulatedMs = 0.0;   //!< their wall time, each counted once
};

/** Tuning and robustness knobs of a sweep. */
struct SweepOptions
{
    /** Fork-join width; 1 (or 0) = serial on the calling thread. */
    unsigned jobs = util::defaultJobs();

    /**
     * Lanes per batched lockstep simulation (sim::BatchMachine).
     * Distinct machines of the same application are grouped, up to
     * this many per group, and advanced in lockstep over the shared
     * traces — the trace pages stream through the cache once per
     * group instead of once per machine. 1 (or 0) disables batching.
     * Results are bit-identical either way; per-cell robustness
     * semantics (checkpoint, fault isolation, cancellation) are
     * preserved lane by lane.
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
     * Flag a cell's preparation or a simulation running longer than
     * this; zero disables.
     */
    std::chrono::milliseconds jobDeadline{0};

    /**
     * Cooperative cancellation: when non-null, the sweep polls this
     * token before starting each cell. Once the token trips (a signal
     * handler, the watchdog, another thread), cells not yet started
     * become failed Outcomes ("sweep cancelled...") while in-flight
     * cells run to completion and are journaled normally — so a
     * cancelled sweep is always cleanly resumable. A skipped cell's
     * error is the token's reason().
     */
    const util::CancelToken *cancel = nullptr;

    /**
     * Per-cell hook: called once per input job, with its input index,
     * when its outcome settles — replayed from the checkpoint,
     * simulated (alone or as a batch lane), failed or cancelled. A
     * duplicate job, and a cell that shares another cell's machine,
     * gets that simulation's outcome and time, in the same
     * settlement. @p wallMs is the wall time of the cell's
     * simulation; replayed, failed and cancelled cells report 0.0.
     * Calls never overlap but may come from any sweep thread, in
     * settlement order rather than input order; a PanicError leaves the
     * remaining cells unsettled. Must not throw. It cannot change a
     * result, but tripping `cancel` from it skips every cell not yet
     * started (the daemon's between-cell deadline check).
     */
    std::function<void(size_t index, const Outcome<RunResult> &outcome,
                       double wallMs)>
        onCell = {};

    /**
     * Chaos/test hook invoked when each unique job not replayed from
     * the checkpoint is prepared, before its placement and
     * simulation; throw from it to simulate that cell failing. Never
     * set in production paths.
     */
    std::function<void(const RunJob &)> faultInjector = {};
};

/**
 * Fans independent cells over util::parallelFor at a fixed width,
 * each answered as Lab::run would answer it. `jobs == 1` (or 0)
 * executes inline on the calling thread — the serial path — which the
 * determinism tests diff against wide runs.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(Lab &lab, unsigned jobs = util::defaultJobs());

    /** Configure from a SweepOptions (checkpoint, deadline, hooks). */
    ParallelRunner(Lab &lab, const SweepOptions &options);

    /** Effective fork-join width (>= 1). */
    unsigned jobs() const { return options_.jobs; }

    /**
     * Run every job and return per-job outcomes in input order.
     * Identical jobs (same app, algorithm, point, cache mode, memory
     * system) are one cell; cells on the same machine (app, SimConfig
     * and placement) are simulated once and the outcome is
     * replicated. A job throwing FatalError (or any std::exception
     * other than PanicError) yields a failed Outcome; PanicError
     * aborts the sweep (remaining jobs are skipped and the panic is
     * rethrown).
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

  private:
    Lab &lab_;
    SweepOptions options_;
    SweepStats stats_;
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_PARALLEL_H
