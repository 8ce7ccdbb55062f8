/**
 * @file
 * Per-figure and per-table experiment drivers. Each driver reproduces
 * one evaluation artifact of the paper and returns plain data; the
 * bench binaries render it. See DESIGN.md's experiment index.
 *
 * Every sweep driver takes a SweepOptions: the fork-join width `jobs`
 * (default: TSP_JOBS or the hardware concurrency; results are
 * bit-identical to `jobs == 1`) and the robustness knobs — a
 * Checkpoint to journal/replay cells, a failures sink that turns
 * per-cell FatalErrors into reported-and-skipped rows (rows carry
 * `failed`/`error`), and a per-job watchdog deadline. Without a
 * failures sink the drivers keep their strict behavior — the first
 * failed cell throws. Callers set only what they need:
 * `execTimeStudy(lab, app, algs, {.jobs = 1})`.
 */

#ifndef TSP_EXPERIMENT_STUDIES_H
#define TSP_EXPERIMENT_STUDIES_H

#include <string>
#include <vector>

#include "analysis/characteristics.h"
#include "core/algorithms.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "util/parallel_for.h"

namespace tsp::experiment {

// ------------------------------------------- Figs 2-5 and hierarchy study

/**
 * One (memory system, algorithm, machine point) cell of a placement
 * sweep: a bar of Figures 2-4, a row of Figure 5, and a cell of the
 * hierarchy study.
 */
struct SweepRow
{
    MemSystem memSystem = MemSystem::Flat1994;
    placement::Algorithm alg{};
    MachinePoint point;
    uint64_t cycles = 0;

    /**
     * Execution time over RANDOM's under the same memory system at the
     * same point (< 1 means faster than RANDOM), so each memory
     * system's bars are internally comparable.
     */
    double normalizedToRandom = 0.0;
    double loadImbalance = 1.0;

    /** Figure 5's miss components and the references they come from. */
    uint64_t compulsory = 0;
    uint64_t intraConflict = 0;
    uint64_t interConflict = 0;
    uint64_t invalidation = 0;
    uint64_t refs = 0;

    /** Shared-L2 and interconnect behavior of this cell. */
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t netQueueingCycles = 0;

    /**
     * Simulation wall time of this cell in milliseconds (0.0 when the
     * cell was replayed from a checkpoint or failed). Observational
     * only — never feeds the figure's data.
     */
    double wallMs = 0.0;

    /** Cell failed (only in degraded sweeps); @ref error says why. */
    bool failed = false;
    std::string error;

    uint64_t
    totalMisses() const
    {
        return compulsory + intraConflict + interConflict + invalidation;
    }
};

/** Study-specific names for SweepRow, kept for existing callers. */
using ExecTimePoint = SweepRow;
using HierarchyPoint = SweepRow;

/**
 * Execution time and miss components of every algorithm in @p algs at
 * every standard machine point on the paper's flat-1994 machine,
 * normalized to RANDOM at the same point (the layout of Figures 2-5).
 */
std::vector<SweepRow> execTimeStudy(
    Lab &lab, workload::AppId app,
    const std::vector<placement::Algorithm> &algs,
    const SweepOptions &options = {});

/**
 * Placement sensitivity across memory-system variants: execTimeStudy
 * under every variant in allMemSystems(), each normalized to RANDOM
 * under the same variant. This is the bridge study from the paper's
 * flat 1994 machine to a modern shared-L2/MOESI/contended-interconnect
 * memory system (see docs/memory_system.md).
 */
std::vector<SweepRow> hierarchyStudy(
    Lab &lab, workload::AppId app,
    const std::vector<placement::Algorithm> &algs,
    const SweepOptions &options = {});

// ----------------------------------------------------------------- Table 4

/** One application's row of Table 4. */
struct Table4Row
{
    std::string app;

    /** Statically counted pairwise shared references (mean, total). */
    double staticPairMean = 0.0;
    double staticTotal = 0.0;

    /** Static shared references as % of total references. */
    double staticPctOfRefs = 0.0;

    /** Dynamic coherence traffic + compulsory (total). */
    double dynamicTotal = 0.0;

    /** Dynamic measure as % of total references. */
    double dynamicPctOfRefs = 0.0;

    /** Pairwise deviation of the dynamic measure (%, and absolute). */
    double dynamicPairDevPct = 0.0;
    double dynamicPairAbsDev = 0.0;

    /** staticTotal / dynamicTotal (the orders-of-magnitude gap). */
    double staticOverDynamic = 0.0;
};

/** Compute Table 4's row for @p app. */
Table4Row table4Row(Lab &lab, workload::AppId app);

/**
 * Table 4 rows for all of @p apps. The heavy per-app artifacts
 * (traces, analysis, coherence probe) materialize one app per thread;
 * rows come back in @p apps order and match serial table4Row calls.
 */
std::vector<Table4Row> table4Study(
    Lab &lab, const std::vector<workload::AppId> &apps,
    unsigned jobs = util::defaultJobs());

// ----------------------------------------------------------------- Table 5

/** One (application, processors) cell pair of Table 5. */
struct Table5Cell
{
    std::string app;
    uint32_t processors = 0;

    /** Best static sharing algorithm at this point. */
    placement::Algorithm bestStatic{};
    double bestStaticVsLoadBal = 0.0;

    /** Dynamic coherence-traffic algorithm. */
    double coherenceVsLoadBal = 0.0;

    /** Cell failed (only in degraded sweeps); @ref error says why. */
    bool failed = false;
    std::string error;
};

/**
 * The 8 MB-cache study (Section 4.3): for each processor count,
 * execution time of the best static sharing-based algorithm (over all
 * twelve — the six metrics and their +LB variants) and of the
 * coherence-traffic algorithm, normalized to LOAD-BAL.
 */
std::vector<Table5Cell> table5Study(Lab &lab, workload::AppId app,
                                    const SweepOptions &options = {});

// ----------------------------------------------------------------- Table 2

/** Compute the measured-characteristics row (Table 2) for @p app. */
analysis::CharacteristicsRow table2Row(Lab &lab, workload::AppId app);

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_STUDIES_H
