/**
 * @file
 * Chaos harness: the fault-injection matrix over the whole robustness
 * stack. For every cataloged fault site x failure kind it runs a
 * representative end-to-end operation — a checkpointed parallel sweep
 * plus a trace save/load roundtrip and a CSV report — with exactly
 * that fault armed, and asserts the trifecta:
 *
 *  1. no crash and no hang — the operation either completes or raises
 *     a clean exception; nothing terminates the process;
 *  2. clean degradation or resumability — either the operation
 *     completed (possibly with failed-and-reported cells), or the
 *     checkpoint journal it left behind is loadable;
 *  3. bit-identical recovery — a fault-free re-run over the surviving
 *     checkpoint reproduces the baseline results exactly.
 *
 * The harness also fails a cell when the armed site never fired: a
 * cataloged site that the scenario cannot reach means the catalog and
 * the wiring have drifted. Exposed as a library so both the chaos CI
 * test and `tsp-run chaos` share one implementation.
 */

#ifndef TSP_EXPERIMENT_CHAOS_H
#define TSP_EXPERIMENT_CHAOS_H

#include <functional>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "workload/suite.h"

namespace tsp::experiment::chaos {

/**
 * A scenario leg plugged in by a layer *above* experiment (svc is the
 * one user), so its fault sites join the matrix without inverting the
 * layering. `run` executes the leg in the given work directory and
 * returns text folded into the scenario fingerprint — it must be
 * deterministic for fault-free runs over the same surviving on-disk
 * state. `reset` deletes the leg's on-disk state; the harness calls
 * it wherever it deletes its own checkpoint (baseline legs and the
 * start of each cell), and leaves the state alone for the recovery
 * leg so resumability is exercised.
 */
struct ScenarioExtension
{
    std::function<std::string(const std::string &workDir)> run;
    std::function<void(const std::string &workDir)> reset;
};

/** Knobs of one chaos-matrix run. */
struct Options
{
    /** Workload scale divisor; large = tiny traces = fast matrix. */
    uint32_t scale = 64;

    /** Sweep width (2 = one started thread + the caller). */
    unsigned jobs = 2;

    /** Application the scenario sweeps. */
    workload::AppId app = workload::AppId::FFT;

    /**
     * Directory for the scenario's checkpoint/trace/CSV files. The
     * caller owns cleanup; files are reused (overwritten) per cell.
     */
    std::string workDir = ".";

    /** Print one line per cell as the matrix runs. */
    bool verbose = false;

    /** Extra scenario leg from a higher layer; empty = none. */
    ScenarioExtension extension;
};

/** Verdict of one (site, kind) cell of the matrix. */
struct CellResult
{
    fault::FaultSpec spec;

    /** The armed site actually executed and injected its fault. */
    bool fired = false;

    /** The faulted run completed without an escaping exception. */
    bool degradedCleanly = false;

    /** What the faulted run raised, when it did not degrade. */
    std::string escapedError;

    /** Fault-free re-run over the checkpoint matched the baseline. */
    bool recoveredIdentical = false;

    /** Failure detail when the trifecta did not hold. */
    std::string note;

    /** The trifecta held for this cell. */
    bool
    passed() const
    {
        return fired && recoveredIdentical;
    }

    /** One-line report, e.g. "trace.write:1:error PASS (degraded)". */
    std::string describe() const;
};

/** Outcome of the full matrix. */
struct MatrixResult
{
    std::vector<CellResult> cells;

    /** Baseline scenario fingerprint (diagnostics). */
    std::string baseline;

    size_t
    passedCount() const
    {
        size_t n = 0;
        for (const auto &c : cells)
            n += c.passed();
        return n;
    }

    bool
    allPassed() const
    {
        return passedCount() == cells.size();
    }
};

/**
 * Run the scenario once, fault-free, with a fresh Lab and no
 * checkpoint, and return its result fingerprint. Exposed so tests can
 * pin that the fingerprint itself is deterministic.
 */
std::string baselineFingerprint(const Options &options);

/**
 * Run the full (site x kind) chaos matrix. The caller must hold the
 * fault registry (no concurrent arm/disarm); the matrix leaves the
 * framework disarmed.
 */
MatrixResult runMatrix(const Options &options);

} // namespace tsp::experiment::chaos

#endif // TSP_EXPERIMENT_CHAOS_H
