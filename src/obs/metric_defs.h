/**
 * @file
 * The catalog of every metric the library emits. Each accessor
 * registers its metric on first use (function-local static, so the
 * steady-state path is one pointer read) and returns a process-wide
 * handle; `allMetrics()` force-registers the whole catalog and returns
 * its metadata.
 *
 * Rules:
 *  - every metric an instrumented layer mutates MUST have its accessor
 *    here and a row in docs/observability.md's reference table —
 *    `tests/obs_doc_test.cc` diffs the two and fails on drift;
 *  - names are dotted lowercase, prefixed by the owning layer
 *    (pool., lab., sweep., checkpoint., sim., bench.).
 */

#ifndef TSP_OBS_METRIC_DEFS_H
#define TSP_OBS_METRIC_DEFS_H

#include <vector>

#include "obs/metrics.h"

namespace tsp::obs {

// ------------------------------------------------ util::parallelFor
Counter &poolTasksExecuted();     //!< shards run on started threads
Counter &poolWorkerBusyMicros();  //!< started-thread time in shards

// ---------------------------------------------------- experiment::Lab
Counter &labTraceMemoHits();
Counter &labTraceMemoMisses();
Counter &labAnalysisMemoHits();
Counter &labAnalysisMemoMisses();
Counter &labProbeMemoHits();
Counter &labProbeMemoMisses();
Histogram &labWarmupMillis();     //!< per-app warmup wall time

// ----------------------------------------- experiment::ParallelRunner
Histogram &sweepCellMillis();     //!< wall time per sweep simulation
Counter &sweepCellsExecuted();
Counter &sweepCellsShared();      //!< answered by another cell's run
Counter &sweepCellsFromCheckpoint();
Counter &sweepCellsFailed();

// ----------------------------------------- experiment::Checkpoint
Counter &storeHits();             //!< lookups served from the store
Counter &storeMisses();           //!< lookups that missed the store
Counter &storeAppends();          //!< records appended to the file
Counter &storeAppendFailures();   //!< records whose append failed
Counter &storeLockWaits();        //!< contended file-lock waits

// ------------------------------------------------------- sim::Machine
Counter &simRuns();               //!< completed simulate() calls
Histogram &simRunMillis();        //!< per-run simulation wall time
Counter &simInstructions();
Counter &simMemRefs();
Counter &simMissCompulsory();
Counter &simMissIntraConflict();
Counter &simMissInterConflict();
Counter &simMissInvalidation();
Counter &simInvalidationsSent(); //!< directory invalidation messages
Counter &simUpgrades();          //!< directory upgrade transactions
Gauge &simDirEntries();          //!< directory table size after a run
Gauge &simHistoryEntries();      //!< summed cache-history sizes
Counter &simL2Hits();            //!< shared-L2 hits on L1 misses
Counter &simL2Misses();          //!< shared-L2 misses (memory fills)
Counter &simNetQueueDelay();     //!< cycles waited on busy links

// ----------------------------------------- trace::SharedTraceStream
Counter &traceChunkRefills();     //!< chunks pulled from producers
Gauge &traceWindowEvents();       //!< events resident in chunk windows
Gauge &traceResidentBytes();      //!< bytes held by materialized traces

// --------------------------------------------------- sim::BatchMachine
Gauge &batchLanes();              //!< lanes in the running batch
Counter &batchLaneFailures();     //!< lanes degraded to an error

// --------------------------------------------------------- svc::Daemon
Gauge &svcQueueDepth();           //!< requests queued, not yet started
Counter &svcAdmitted();           //!< requests admitted to the queue
Counter &svcShed();               //!< submissions rejected (load shed)
Counter &svcExpired();            //!< requests expired in the queue
Counter &svcRequestsCompleted();  //!< requests answered (any status)
Histogram &svcRequestMillis();    //!< admit-to-answer request latency

// ----------------------------------------------- svc::Server / Client
Counter &netConnectionsAccepted(); //!< client connections accepted
Gauge &netConnectionsOpen();       //!< connections currently open
Counter &netConnectionsRejected(); //!< connections refused at accept
Counter &netFramesIn();            //!< wire frames received (server)
Counter &netFramesOut();           //!< wire frames sent (server)
Counter &netMalformedFrames();     //!< malformed streams rejected
Counter &netConnectionsReaped();   //!< idle/stalled connections reaped
Counter &netReconnects();          //!< client reconnect-and-reissues

// ----------------------------------------------------- fault::Registry
Counter &faultInjected();         //!< faults actually injected
Gauge &faultSitesRegistered();    //!< injection sites registered

// ------------------------------------------------------------- bench
Histogram &benchWallMillis();     //!< every `[wall]` line's duration

/**
 * Register the full catalog (idempotent) and return the registry's
 * metadata for it. The doc-sync test compares this against the table
 * in docs/observability.md.
 */
std::vector<MetricInfo> allMetrics();

} // namespace tsp::obs

#endif // TSP_OBS_METRIC_DEFS_H
