#include "trace/trace_set.h"

#include "trace/touched_block_counter.h"
#include "util/error.h"

namespace tsp::trace {

void
TouchedBlockCounter::count(std::span<const TraceEvent> events)
{
    for (const TraceEvent &e : events) {
        EventKind kind = e.kind();
        if (kind != EventKind::Load && kind != EventKind::Store)
            continue;
        uint64_t block = e.address() >> blockShift_;
        local_.tryEmplace(block);
        global_.tryEmplace(block);
    }
}

void
TouchedBlockCounter::endThread()
{
    census_.perThread.push_back(local_.size());
    local_.clear();
}

TraceSource::TouchedBlocks
TouchedBlockCounter::take()
{
    census_.total = global_.size();
    return std::move(census_);
}

void
TraceSet::addThread(ThreadTrace tt)
{
    util::fatalIf(tt.id() != threads_.size(),
                  "thread trace ids must be dense and in order");
    threads_.push_back(std::move(tt));
}

uint64_t
TraceSet::totalInstructions() const
{
    uint64_t sum = 0;
    for (const auto &t : threads_)
        sum += t.instructionCount();
    return sum;
}

uint64_t
TraceSet::totalMemRefs() const
{
    uint64_t sum = 0;
    for (const auto &t : threads_)
        sum += t.memRefCount();
    return sum;
}

std::vector<uint64_t>
TraceSet::threadLengths() const
{
    std::vector<uint64_t> lengths;
    lengths.reserve(threads_.size());
    for (const auto &t : threads_)
        lengths.push_back(t.instructionCount());
    return lengths;
}

const TraceSource::TouchedBlocks &
TraceSet::touchedBlocks(unsigned blockShift) const
{
    std::shared_ptr<TouchedMemo> memo = touched_;
    std::lock_guard<std::mutex> lock(memo->mutex);
    auto it = memo->byShift.find(blockShift);
    if (it != memo->byShift.end())
        return it->second;

    TouchedBlockCounter counter(blockShift);
    for (const auto &t : threads_) {
        counter.count(t.events());
        counter.endThread();
    }
    return memo->byShift.emplace(blockShift, counter.take())
        .first->second;
}

} // namespace tsp::trace
