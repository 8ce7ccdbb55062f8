/**
 * @file
 * The benchmark's three workloads. Each runs untraced through the
 * public study entry points tsp-run uses, and again traced, calling
 * each layer's entry point from the benchmark's own code under a span.
 */

#ifndef STUDYBENCH_WORKLOADS_H
#define STUDYBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"

namespace studybench {

/** Pool width of both sweep workloads, untraced and traced. */
inline constexpr unsigned kPoolWidth = 4;

/** One pass of a workload's study (untraced or traced). */
struct StudyPass
{
    /** Seconds from the first cell to the last result row. */
    double studyS = 0;

    /** CRC-32 of the simulated outputs, in row order. */
    uint32_t digest = 0;

    /**
     * CRC-32 of each cell's miss components, in row order, on the one
     * pass whose @ref digest lacks them: traced paper-figs (without a
     * journal, execTimeStudy exposes no per-cell statistics). 0
     * elsewhere.
     */
    uint32_t missDigest = 0;

    uint64_t cells = 0;   //!< cells attempted
    uint64_t failed = 0;  //!< cells that failed

    /** The workload's output checks all held (see workloads.cc). */
    bool checked = true;

    /**
     * |sampled - full| / full execution time of the reference cell,
     * in percent; 0 where every cell is simulated in full.
     */
    double estErrPct = 0;
};

/** Counts one thread takes at the layer boundaries of a traced run. */
struct LayerCounts
{
    uint64_t simRefs = 0;
    uint64_t simCycles = 0;
    std::array<uint64_t, 4> misses{};  //!< compulsory, intra, inter, inval
    uint64_t invalSent = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t netQueueCycles = 0;
    uint64_t persistBytes = 0;
    uint64_t sampledRefs = 0;
    uint64_t sampledFullRefs = 0;
    std::vector<double> cellMs;      //!< each cell's wall time
    std::vector<double> cellWaitMs;  //!< each cell's wait for a worker

    /** Add another thread's counts. */
    void merge(const LayerCounts &other);
};

/** What the traced run records: spans and boundary counts. */
struct TracedRun
{
    /** Tape and counts 0 are the main thread's; workers add theirs. */
    std::deque<Tape> tapes{1};
    std::deque<LayerCounts> counts{1};

    uint64_t traceBytes = 0;    //!< generated or resident trace bytes
    uint64_t journalBytes = 0;  //!< final journal size
    unsigned width = 1;         //!< workers the cells ran on
    double poolWallMs = 0;      //!< summed wall time of the fan-outs

    Tape &main() { return tapes.front(); }
};

/** One of paper-figs, journaled-suite, wide-sampled. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * One untraced set-up: everything before the first cell. The
     * first call builds the state study() uses; later calls repeat
     * the same work so its time can be taken as a median.
     */
    virtual void setUp() = 0;

    /** One untraced study pass over the state setUp() built. */
    virtual StudyPass study() = 0;

    /** Set up and run the study again, traced, into @p run. */
    virtual StudyPass traced(TracedRun &run) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name. Every workload's inputs are fixed: the suite
 * runs the paper's calibrated profiles and wide-sampled the synthetic
 * scale profile, each with its own seed. @p tiny selects the smoke
 * test's sizes; @p workdir receives the journal and the CSV reports.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name, bool tiny,
                                       const std::string &workdir);

} // namespace studybench

#endif // STUDYBENCH_WORKLOADS_H
