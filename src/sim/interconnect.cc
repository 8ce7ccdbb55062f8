#include "sim/interconnect.h"

#include <algorithm>

namespace tsp::sim {

Interconnect::Interconnect(const SimConfig &cfg)
    : occupancy_(cfg.linkOccupancy)
{
    cfg.validate();
    freeAt_.assign(cfg.networkLinks, 0);
}

uint64_t
Interconnect::queueDelay(uint64_t now, uint64_t block)
{
    ++transactions_;
    if (freeAt_.empty())
        return 0;  // contention-free multipath (the paper)

    // Queued link: the block's address picks its FIFO.
    uint64_t &slot = freeAt_[block % freeAt_.size()];
    uint64_t start = std::max(now, slot);
    uint64_t wait = start - now;
    slot = start + occupancy_;

    queueing_ += wait;
    maxQueueing_ = std::max(maxQueueing_, wait);
    return wait;
}

} // namespace tsp::sim
