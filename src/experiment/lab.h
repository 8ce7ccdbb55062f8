/**
 * @file
 * The experiment runner: memoizes per-application traces, static
 * analyses and measured coherence matrices, and runs (application x
 * placement algorithm x machine point) simulations reproducibly.
 */

#ifndef TSP_EXPERIMENT_LAB_H
#define TSP_EXPERIMENT_LAB_H

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "analysis/static_analysis.h"
#include "core/algorithms.h"
#include "experiment/configs.h"
#include "sim/coherence_probe.h"
#include "sim/config.h"
#include "sim/results.h"
#include "workload/suite.h"

namespace tsp::experiment {

/**
 * Per-run miss-component and coherence-message totals, so sweep
 * consumers read one struct instead of re-aggregating SimStats'
 * per-processor counters kind by kind.
 */
struct RunMissSummary
{
    uint64_t compulsory = 0;
    uint64_t intraConflict = 0;
    uint64_t interConflict = 0;
    uint64_t invalidation = 0;
    uint64_t memRefs = 0;

    uint64_t invalidationsSent = 0;  //!< directory coherence messages
    uint64_t upgrades = 0;           //!< write-hit upgrade transactions

    uint64_t
    totalMisses() const
    {
        return compulsory + intraConflict + interConflict +
               invalidation;
    }
};

/** Result of one placement + simulation run. */
struct RunResult
{
    placement::PlacementMap placement;
    sim::SimStats stats;

    /** Paper's figure of merit. */
    uint64_t executionTime = 0;

    /** Max processor load over ideal (1.0 = perfect balance). */
    double loadImbalance = 1.0;

    /**
     * This run's miss components and coherence messages (derived from
     * @ref stats on demand, so checkpointed results replay it too).
     */
    RunMissSummary missSummary() const;
};

/**
 * A Lab binds a workload scale and caches everything derivable from
 * it. All results are deterministic: the RANDOM placement's seed is a
 * hash of (application, algorithm, processors).
 *
 * Thread-safety contract: every public method may be called from any
 * number of threads concurrently. The lazy caches use per-key
 * once-initialization — the first caller of traces()/analysis()/
 * coherenceProbe() for an application materializes the artifact while
 * concurrent callers for the *same* application block on it and then
 * share the one cached instance; callers for *different* applications
 * proceed in parallel. Returned references stay valid for the Lab's
 * lifetime (entries are never evicted).
 */
class Lab
{
  public:
    /** @param scale workload scale (power of two; 1 = full size). */
    explicit Lab(uint32_t scale);

    /** The bound workload scale. */
    uint32_t scale() const { return scale_; }

    /** Generated traces of @p app (memoized). */
    const trace::TraceSet &traces(workload::AppId app);

    /** Static analysis of @p app (memoized). */
    const analysis::StaticAnalysis &analysis(workload::AppId app);

    /**
     * Per-thread dynamic instruction lengths of @p app — the cached
     * vector inside analysis(app); exposed so hot loops do not repeat
     * the analysis lookup per run.
     */
    const std::vector<uint64_t> &threadLength(workload::AppId app);

    /**
     * Thread-pair coherence traffic of @p app, measured with one
     * thread per processor (memoized; Section 4.2).
     */
    const stats::PairMatrix &coherenceMatrix(workload::AppId app);

    /**
     * The whole coherence measurement run of @p app: its pair matrix
     * and its statistics (memoized).
     */
    const sim::CoherenceProbeResult &coherenceProbe(workload::AppId app);

    /**
     * Pre-materialize the cached artifacts of @p app (traces and
     * analysis; the coherence probe too when @p coherence). Purely an
     * optimization — the lazy path computes the same values — called
     * from util::parallelFor to overlap per-app materialization before
     * a fan-out.
     */
    void warmup(workload::AppId app, bool coherence = false);

    /**
     * Architectural configuration for @p app at @p point, with the
     * @p memSystem scenario overlaid (Flat1994 = the seed model).
     */
    sim::SimConfig configFor(workload::AppId app,
                             const MachinePoint &point,
                             bool infiniteCache = false,
                             MemSystem memSystem =
                                 MemSystem::Flat1994) const;

    /** Build the placement of @p alg for @p app on @p processors. */
    placement::PlacementMap placementFor(workload::AppId app,
                                         placement::Algorithm alg,
                                         uint32_t processors);

    /** Place with @p alg and simulate @p app at @p point. */
    RunResult run(workload::AppId app, placement::Algorithm alg,
                  const MachinePoint &point,
                  bool infiniteCache = false,
                  MemSystem memSystem = MemSystem::Flat1994);

  private:
    /**
     * One lazily-initialized cache slot. The map node (and so the
     * slot) is created under memoMutex_; the value is produced exactly
     * once via the flag, outside the map lock, so different
     * applications materialize concurrently.
     */
    template <typename T>
    struct Memo
    {
        std::once_flag once;
        T value{};
    };

    /** Find-or-create the slot of @p app in @p map (locked). */
    template <typename T>
    Memo<T> &
    memoEntry(std::map<workload::AppId, Memo<T>> &map,
              workload::AppId app)
    {
        {
            std::shared_lock<std::shared_mutex> lock(memoMutex_);
            auto it = map.find(app);
            if (it != map.end())
                return it->second;
        }
        std::unique_lock<std::shared_mutex> lock(memoMutex_);
        return map[app];  // std::map nodes are reference-stable
    }

    /** placementFor with the analysis lookup already done. */
    placement::PlacementMap placementWith(
        const analysis::StaticAnalysis &an, workload::AppId app,
        placement::Algorithm alg, uint32_t processors);

    uint32_t scale_;
    std::shared_mutex memoMutex_;
    std::map<workload::AppId,
             Memo<std::shared_ptr<const trace::TraceSet>>> traces_;
    std::map<workload::AppId,
             Memo<std::unique_ptr<analysis::StaticAnalysis>>> analyses_;
    std::map<workload::AppId,
             Memo<std::unique_ptr<sim::CoherenceProbeResult>>> probes_;
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_LAB_H
