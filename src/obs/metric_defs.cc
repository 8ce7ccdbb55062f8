#include "obs/metric_defs.h"

namespace tsp::obs {

namespace {

/** Shared wall-time bucket ladder (milliseconds). */
std::vector<double>
millisBounds()
{
    return {0.1, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500,
            1000, 2000, 5000, 10000, 30000};
}

} // namespace

#define TSP_OBS_COUNTER(fn, name, owner, help)                         \
    Counter &fn()                                                      \
    {                                                                  \
        static Counter &metric =                                       \
            Registry::instance().counter(name, owner, help);           \
        return metric;                                                 \
    }

#define TSP_OBS_GAUGE(fn, name, owner, help)                           \
    Gauge &fn()                                                        \
    {                                                                  \
        static Gauge &metric =                                         \
            Registry::instance().gauge(name, owner, help);             \
        return metric;                                                 \
    }

#define TSP_OBS_MS_HISTOGRAM(fn, name, owner, help)                    \
    Histogram &fn()                                                    \
    {                                                                  \
        static Histogram &metric = Registry::instance().histogram(     \
            name, owner, help, millisBounds());                        \
        return metric;                                                 \
    }

TSP_OBS_COUNTER(poolTasksExecuted, "pool.tasks_executed",
                "util::parallelFor",
                "shards run to completion on started threads")
TSP_OBS_COUNTER(poolWorkerBusyMicros, "pool.worker_busy_us",
                "util::parallelFor",
                "cumulative started-thread time spent running shards")

TSP_OBS_COUNTER(labTraceMemoHits, "lab.trace_memo_hits",
                "experiment::Lab",
                "trace-set requests served from the memo cache")
TSP_OBS_COUNTER(labTraceMemoMisses, "lab.trace_memo_misses",
                "experiment::Lab",
                "trace-set requests that materialized the traces")
TSP_OBS_COUNTER(labAnalysisMemoHits, "lab.analysis_memo_hits",
                "experiment::Lab",
                "static-analysis requests served from the memo cache")
TSP_OBS_COUNTER(labAnalysisMemoMisses, "lab.analysis_memo_misses",
                "experiment::Lab",
                "static-analysis requests that ran the analyzer")
TSP_OBS_COUNTER(labProbeMemoHits, "lab.probe_memo_hits",
                "experiment::Lab",
                "coherence-probe requests served from the memo cache")
TSP_OBS_COUNTER(labProbeMemoMisses, "lab.probe_memo_misses",
                "experiment::Lab",
                "coherence-probe requests that ran the measurement")
TSP_OBS_MS_HISTOGRAM(labWarmupMillis, "lab.warmup_ms",
                     "experiment::Lab",
                     "per-application warmup wall time")

TSP_OBS_MS_HISTOGRAM(sweepCellMillis, "sweep.cell_ms",
                     "experiment::ParallelRunner",
                     "wall time of each sweep simulation (one per "
                     "distinct machine)")
TSP_OBS_COUNTER(sweepCellsExecuted, "sweep.cells_executed",
                "experiment::ParallelRunner",
                "unique cells answered fresh this process")
TSP_OBS_COUNTER(sweepCellsShared, "sweep.cells_shared",
                "experiment::ParallelRunner",
                "unique cells answered by another cell's simulation")
TSP_OBS_COUNTER(sweepCellsFromCheckpoint, "sweep.cells_from_checkpoint",
                "experiment::ParallelRunner",
                "unique cells replayed from a checkpoint journal")
TSP_OBS_COUNTER(sweepCellsFailed, "sweep.cells_failed",
                "experiment::ParallelRunner",
                "unique cells that ended in a failed Outcome")

TSP_OBS_COUNTER(storeHits, "store.hits", "experiment::Checkpoint",
                "result lookups served from the store")
TSP_OBS_COUNTER(storeMisses, "store.misses", "experiment::Checkpoint",
                "result lookups that missed the store")
TSP_OBS_COUNTER(storeAppends, "store.appends", "experiment::Checkpoint",
                "records appended to the store file")
TSP_OBS_COUNTER(storeAppendFailures, "store.append_failures",
                "experiment::Checkpoint",
                "records whose append failed after bounded retry "
                "(kept resident)")
TSP_OBS_COUNTER(storeLockWaits, "store.lock_waits",
                "experiment::Checkpoint",
                "file-lock acquisitions that had to wait for another "
                "process")

TSP_OBS_COUNTER(simRuns, "sim.runs", "sim::Machine",
                "completed simulate() calls")
TSP_OBS_MS_HISTOGRAM(simRunMillis, "sim.run_ms", "sim::Machine",
                     "per-run simulation wall time")
TSP_OBS_COUNTER(simInstructions, "sim.instructions", "sim::Machine",
                "instructions retired across all runs")
TSP_OBS_COUNTER(simMemRefs, "sim.mem_refs", "sim::Machine",
                "data references simulated across all runs")
TSP_OBS_COUNTER(simMissCompulsory, "sim.miss.compulsory",
                "sim::Machine", "compulsory misses across all runs")
TSP_OBS_COUNTER(simMissIntraConflict, "sim.miss.intra_conflict",
                "sim::Machine",
                "intra-thread conflict misses across all runs")
TSP_OBS_COUNTER(simMissInterConflict, "sim.miss.inter_conflict",
                "sim::Machine",
                "inter-thread conflict misses across all runs")
TSP_OBS_COUNTER(simMissInvalidation, "sim.miss.invalidation",
                "sim::Machine", "invalidation misses across all runs")
TSP_OBS_COUNTER(simInvalidationsSent, "sim.invalidations_sent",
                "sim::Directory",
                "invalidation messages the directory sent")
TSP_OBS_COUNTER(simUpgrades, "sim.upgrades", "sim::Directory",
                "write-hit upgrade transactions")
TSP_OBS_GAUGE(simDirEntries, "sim.dir_entries", "sim::Directory",
              "blocks in the directory table after a run "
              "(max = largest run)")
TSP_OBS_GAUGE(simHistoryEntries, "sim.history_entries", "sim::Cache",
              "summed per-cache departure-history entries after a run "
              "(max = largest run)")
TSP_OBS_COUNTER(simL2Hits, "sim.l2_hits", "sim::SharedL2",
                "L1 misses filled from the shared L2")
TSP_OBS_COUNTER(simL2Misses, "sim.l2_misses", "sim::SharedL2",
                "L1 misses the shared L2 also missed (memory fills)")
TSP_OBS_COUNTER(simNetQueueDelay, "sim.net_queue_delay",
                "sim::Interconnect",
                "cycles transactions waited on busy links")

TSP_OBS_COUNTER(traceChunkRefills, "trace.chunk_refills",
                "trace::SharedTraceStream",
                "chunk windows pulled from streaming producers")
TSP_OBS_GAUGE(traceWindowEvents, "trace.window_events",
              "trace::SharedTraceStream",
              "events resident across chunk windows "
              "(max = streaming memory high water)")
TSP_OBS_GAUGE(traceResidentBytes, "trace.resident_bytes",
              "workload::generateTraces",
              "bytes held resident by trace generation: whole "
              "materialized traces, or the chunk-window high water "
              "of a streaming run (max = largest application)")

TSP_OBS_GAUGE(batchLanes, "batch.lanes", "sim::BatchMachine",
              "lanes being advanced by the running batch "
              "(max = widest batch)")
TSP_OBS_COUNTER(batchLaneFailures, "batch.lane_failures",
                "sim::BatchMachine",
                "lanes that failed and degraded to an error result")

TSP_OBS_GAUGE(svcQueueDepth, "svc.queue_depth", "svc::Daemon",
              "requests admitted but not yet started "
              "(max = queue high water)")
TSP_OBS_COUNTER(svcAdmitted, "svc.admitted", "svc::Daemon",
                "requests admitted to the bounded queue")
TSP_OBS_COUNTER(svcShed, "svc.shed", "svc::Daemon",
                "submissions rejected by admission control (load shed)")
TSP_OBS_COUNTER(svcExpired, "svc.expired", "svc::Daemon",
                "requests whose deadline passed while still queued")
TSP_OBS_COUNTER(svcRequestsCompleted, "svc.requests_completed",
                "svc::Daemon",
                "admitted requests answered (any final status)")
TSP_OBS_MS_HISTOGRAM(svcRequestMillis, "svc.request_ms", "svc::Daemon",
                     "admit-to-answer latency of admitted requests")

TSP_OBS_COUNTER(netConnectionsAccepted, "net.accepted", "svc::Server",
                "client connections accepted by the listener")
TSP_OBS_GAUGE(netConnectionsOpen, "net.open", "svc::Server",
              "connections currently open "
              "(max = concurrency high water)")
TSP_OBS_COUNTER(netConnectionsRejected, "net.rejected", "svc::Server",
                "connections refused at accept (capacity or draining)")
TSP_OBS_COUNTER(netFramesIn, "net.frames_in", "svc::Server",
                "wire frames received from clients")
TSP_OBS_COUNTER(netFramesOut, "net.frames_out", "svc::Server",
                "wire frames sent to clients")
TSP_OBS_COUNTER(netMalformedFrames, "net.malformed", "svc::Server",
                "malformed wire streams rejected and dropped")
TSP_OBS_COUNTER(netConnectionsReaped, "net.reaped", "svc::Server",
                "connections reaped for idling or stalling mid-frame")
TSP_OBS_COUNTER(netReconnects, "net.reconnects", "svc::Client",
                "transport failures answered by reconnect-and-reissue")

TSP_OBS_COUNTER(faultInjected, "fault.injected", "fault::Registry",
                "faults the injection framework actually fired")
TSP_OBS_GAUGE(faultSitesRegistered, "fault.sites", "fault::Registry",
              "fault-injection sites registered so far")

TSP_OBS_MS_HISTOGRAM(benchWallMillis, "bench.wall_ms", "bench",
                     "duration behind every [wall] timing line")

#undef TSP_OBS_COUNTER
#undef TSP_OBS_GAUGE
#undef TSP_OBS_MS_HISTOGRAM

std::vector<MetricInfo>
allMetrics()
{
    // Touch every accessor so the registry holds the full catalog.
    poolTasksExecuted();
    poolWorkerBusyMicros();
    labTraceMemoHits();
    labTraceMemoMisses();
    labAnalysisMemoHits();
    labAnalysisMemoMisses();
    labProbeMemoHits();
    labProbeMemoMisses();
    labWarmupMillis();
    sweepCellMillis();
    sweepCellsExecuted();
    sweepCellsShared();
    sweepCellsFromCheckpoint();
    sweepCellsFailed();
    storeHits();
    storeMisses();
    storeAppends();
    storeAppendFailures();
    storeLockWaits();
    simRuns();
    simRunMillis();
    simInstructions();
    simMemRefs();
    simMissCompulsory();
    simMissIntraConflict();
    simMissInterConflict();
    simMissInvalidation();
    simInvalidationsSent();
    simUpgrades();
    simDirEntries();
    simHistoryEntries();
    simL2Hits();
    simL2Misses();
    simNetQueueDelay();
    traceChunkRefills();
    traceWindowEvents();
    traceResidentBytes();
    batchLanes();
    batchLaneFailures();
    svcQueueDepth();
    svcAdmitted();
    svcShed();
    svcExpired();
    svcRequestsCompleted();
    svcRequestMillis();
    netConnectionsAccepted();
    netConnectionsOpen();
    netConnectionsRejected();
    netFramesIn();
    netFramesOut();
    netMalformedFrames();
    netConnectionsReaped();
    netReconnects();
    faultInjected();
    faultSitesRegistered();
    benchWallMillis();
    return Registry::instance().metrics();
}

} // namespace tsp::obs
