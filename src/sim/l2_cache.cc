#include "sim/l2_cache.h"

#include "util/bits.h"
#include "util/error.h"

namespace tsp::sim {

SharedL2::SharedL2(const SimConfig &cfg)
{
    cfg.validate();
    util::panicIf(cfg.l2Bytes == 0,
                  "SharedL2 constructed with l2Bytes == 0");
    uint64_t sets = cfg.numL2Sets();
    util::panicIf(!util::isPow2(sets),
                  "L2 set count must be a power of 2");
    setMask_ = sets - 1;
    ways_ = cfg.l2Associativity;
    frames_.resize(sets * ways_);
}

SharedL2::Frame *
SharedL2::lookup(uint64_t block)
{
    size_t base = setBase(block);
    for (uint32_t w = 0; w < ways_; ++w) {
        Frame &f = frames_[base + w];
        if (f.valid && f.tag == block) {
            f.lastUse = ++tick_;
            return &f;
        }
    }
    return nullptr;
}

bool
SharedL2::present(uint64_t block) const
{
    size_t base = setBase(block);
    for (uint32_t w = 0; w < ways_; ++w) {
        const Frame &f = frames_[base + w];
        if (f.valid && f.tag == block)
            return true;
    }
    return false;
}

SharedL2::Victim
SharedL2::insert(uint64_t block, bool dirty)
{
    size_t base = setBase(block);
    Frame *victim = &frames_[base];
    for (uint32_t w = 0; w < ways_; ++w) {
        Frame &f = frames_[base + w];
        util::panicIf(f.valid && f.tag == block,
                      "L2 insert of an already-resident block");
        if (!f.valid) {
            victim = &f;
            break;
        }
        if (f.lastUse < victim->lastUse)
            victim = &f;
    }
    Victim out;
    if (victim->valid) {
        out.evicted = true;
        out.dirty = victim->dirty;
        out.block = victim->tag;
    }
    victim->tag = block;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lastUse = ++tick_;
    return out;
}

void
SharedL2::markDirty(uint64_t block)
{
    size_t base = setBase(block);
    for (uint32_t w = 0; w < ways_; ++w) {
        Frame &f = frames_[base + w];
        if (f.valid && f.tag == block) {
            f.dirty = true;
            return;
        }
    }
}

size_t
SharedL2::validCount() const
{
    size_t n = 0;
    for (const Frame &f : frames_)
        if (f.valid)
            ++n;
    return n;
}

} // namespace tsp::sim

