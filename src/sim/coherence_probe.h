/**
 * @file
 * Dynamic coherence-traffic measurement (Section 4.2): simulate the
 * application with one thread per processor and as many processors as
 * threads, so the coherence traffic between processor pairs maps
 * one-to-one onto thread pairs. The resulting matrix is directly
 * comparable to the static pairwise shared-reference counts and feeds
 * the COHERENCE-TRAFFIC placement algorithm.
 */

#ifndef TSP_SIM_COHERENCE_PROBE_H
#define TSP_SIM_COHERENCE_PROBE_H

#include "sim/config.h"
#include "sim/results.h"
#include "stats/pair_matrix.h"
#include "trace/trace_set.h"

namespace tsp::sim {

/** Output of the one-thread-per-processor measurement run. */
struct CoherenceProbeResult
{
    /**
     * Thread-pair coherence traffic + sharing compulsory misses: the
     * run's attribution sink, and the only place the matrix exists.
     */
    stats::PairMatrix pairs;

    /** Full statistics of the measurement run. */
    SimStats stats;
};

/**
 * Run the measurement simulation. @p base supplies the cache and
 * latency parameters; processors and contexts are overridden to
 * (threads, 1). Thread counts above sim::kMaxProcessors are rejected
 * (the machine-width cap of sim/config.h).
 */
CoherenceProbeResult measureCoherenceTraffic(const trace::TraceSet &traces,
                                             const SimConfig &base);

} // namespace tsp::sim

#endif // TSP_SIM_COHERENCE_PROBE_H
