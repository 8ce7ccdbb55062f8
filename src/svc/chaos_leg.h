/**
 * @file
 * The svc leg of the chaos matrix: a small daemon-with-store run over
 * the wire that deterministically reaches the service fault sites
 * (svc.admit, svc.dequeue, net.*) and the result store's, plugged into
 * experiment::chaos::Options::extension. Lives in svc — not in the
 * chaos harness itself — because experiment cannot depend on the
 * layer above it.
 */

#ifndef TSP_SVC_CHAOS_LEG_H
#define TSP_SVC_CHAOS_LEG_H

#include "experiment/chaos.h"

namespace tsp::svc {

/**
 * The extension the chaos harness runs per cell: a daemon bound to
 * (@p app, @p scale) with a result store under the harness's work
 * directory serves a fixed pair of two-cell studies. run() returns a
 * fingerprint of every answered result (bit-stable across fresh and
 * store-resumed executions); reset() deletes the store file.
 */
experiment::chaos::ScenarioExtension chaosLeg(workload::AppId app,
                                              uint32_t scale);

} // namespace tsp::svc

#endif // TSP_SVC_CHAOS_LEG_H
