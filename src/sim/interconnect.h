/**
 * @file
 * Interconnect model. The paper "assumes a multipath network and does
 * not explicitly model network contention", approximating memory
 * access with a flat 50-cycle latency. This class reproduces that
 * default and additionally offers one bounded contention model, queued
 * links (SimConfig::networkLinks): address-interleaved FIFOs — a
 * transaction on block B queues on link B mod k and occupies it for
 * linkOccupancy cycles, so latency grows with the queue a miss finds
 * and hot blocks contend with themselves. One link serializes every
 * transaction (`bench_ablation_bandwidth` sweeps the link count).
 *
 * The queueing delay is exposed separately from the fill latency
 * (queueDelay) so the Machine can combine it with whatever the miss
 * actually costs — full memoryLatency or a shared-L2 hit.
 */

#ifndef TSP_SIM_INTERCONNECT_H
#define TSP_SIM_INTERCONNECT_H

#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace tsp::sim {

/**
 * Queueing model for memory transactions.
 */
class Interconnect
{
  public:
    /**
     * Queued links when cfg.networkLinks > 0, contention-free
     * otherwise (@p cfg is validated here).
     */
    explicit Interconnect(const SimConfig &cfg);

    /**
     * Issue a transaction for @p block at time @p now; returns the
     * cycles it waits on its link before its memory access can start
     * (0 in the contention-free mode).
     */
    uint64_t queueDelay(uint64_t now, uint64_t block);

    /** Transactions issued so far. */
    uint64_t transactions() const { return transactions_; }

    /** Total cycles transactions spent waiting for a link. */
    uint64_t queueingCycles() const { return queueing_; }

    /** Worst single-transaction queueing delay seen. */
    uint64_t maxQueueing() const { return maxQueueing_; }

  private:
    uint32_t occupancy_;
    std::vector<uint64_t> freeAt_;  //!< per link; empty when
                                    //!< contention-free

    uint64_t transactions_ = 0;
    uint64_t queueing_ = 0;
    uint64_t maxQueueing_ = 0;
};

} // namespace tsp::sim

#endif // TSP_SIM_INTERCONNECT_H
