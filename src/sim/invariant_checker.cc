#include "sim/invariant_checker.h"

#include <sstream>

#include "util/error.h"
#include "util/logging.h"

namespace tsp::sim {

namespace {

const char *
stateName(CoherenceState s)
{
    switch (s) {
    case CoherenceState::Invalid:
        return "I";
    case CoherenceState::Shared:
        return "S";
    case CoherenceState::Exclusive:
        return "E";
    case CoherenceState::Modified:
        return "M";
    case CoherenceState::Owned:
        return "O";
    }
    return "?";
}

const char *
dirStateName(Directory::State s)
{
    switch (s) {
    case Directory::State::Uncached:
        return "Uncached";
    case Directory::State::Shared:
        return "Shared";
    case Directory::State::Owned:
        return "Owned";
    case Directory::State::SharedOwned:
        return "SharedOwned";
    }
    return "?";
}

} // namespace

InvariantChecker::InvariantChecker(const Directory &directory,
                                   const std::vector<Cache> &caches,
                                   const SimStats &stats,
                                   const SharedL2 *l2)
    : directory_(directory), caches_(caches), stats_(stats), l2_(l2),
      prev_(caches.size())
{}

std::string
InvariantChecker::dumpBlock(uint64_t block) const
{
    std::ostringstream os;
    os << "block 0x" << std::hex << block << std::dec << ": directory ";
    if (const Directory::Entry *e = directory_.find(block)) {
        os << dirStateName(e->state) << " owner=" << e->owner
           << " sharers={";
        bool first = true;
        for (uint32_t p = 0; p < caches_.size(); ++p) {
            if (!e->isSharer(p)) {
                continue;
            }
            os << (first ? "" : ",") << p;
            first = false;
        }
        os << "}";
    } else {
        os << "(no entry)";
    }
    os << "; frames:";
    bool any = false;
    for (uint32_t p = 0; p < caches_.size(); ++p) {
        if (const Cache::Frame *f = caches_[p].lookup(block)) {
            os << " cache" << p << "=" << stateName(f->state)
               << "(tid " << f->threadId << ")";
            any = true;
        }
    }
    if (!any)
        os << " (in no cache)";
    return os.str();
}

void
InvariantChecker::checkDirectoryAgainstCaches(uint64_t when) const
{
    directory_.forEachEntry([&](uint64_t block,
                                const Directory::Entry &e) {
        auto fail = [&](const std::string &why) {
            util::panic(util::concat(
                "coherence invariant violated at ref ", when, ": ",
                why, " [", dumpBlock(block), "]"));
        };
        uint32_t sharers = e.sharerCount();
        switch (e.state) {
        case Directory::State::Uncached:
            if (sharers != 0)
                fail("Uncached block has sharers");
            break;
        case Directory::State::Owned: {
            if (sharers != 1)
                fail("Owned block must have exactly one sharer");
            if (!e.isSharer(e.owner))
                fail("Owned block's owner is not in the sharer set");
            if (e.owner >= caches_.size())
                fail("Owned block's owner is out of range");
            const Cache::Frame *f = caches_[e.owner].lookup(block);
            if (!f)
                fail("owning cache does not hold the block");
            if (f->state != CoherenceState::Exclusive &&
                f->state != CoherenceState::Modified) {
                fail("owning cache holds the block without ownership");
            }
            if (directory_.protocol() == Protocol::Msi &&
                f->state == CoherenceState::Exclusive) {
                fail("Exclusive frame under MSI");
            }
            break;
        }
        case Directory::State::SharedOwned: {
            if (directory_.protocol() != Protocol::Moesi)
                fail("SharedOwned block outside MOESI");
            if (sharers == 0)
                fail("SharedOwned block has an empty sharer set");
            if (!e.isSharer(e.owner))
                fail("SharedOwned block's owner is not in the sharer "
                     "set");
            if (e.owner >= caches_.size())
                fail("SharedOwned block's owner is out of range");
            for (uint32_t p = 0; p < caches_.size(); ++p) {
                if (!e.isSharer(p))
                    continue;
                const Cache::Frame *f = caches_[p].lookup(block);
                if (!f)
                    fail(util::concat("sharer cache ", p,
                                      " does not hold the block"));
                CoherenceState want = p == e.owner
                                          ? CoherenceState::Owned
                                          : CoherenceState::Shared;
                if (f->state != want)
                    fail(util::concat("sharer cache ", p,
                                      " holds the block in the wrong "
                                      "state"));
            }
            break;
        }
        case Directory::State::Shared:
            if (sharers == 0)
                fail("Shared block has an empty sharer set");
            for (uint32_t p = 0; p < caches_.size(); ++p) {
                if (!e.isSharer(p))
                    continue;
                const Cache::Frame *f = caches_[p].lookup(block);
                if (!f)
                    fail(util::concat("sharer cache ", p,
                                      " does not hold the block"));
                if (f->state != CoherenceState::Shared)
                    fail(util::concat("sharer cache ", p,
                                      " holds the block non-Shared"));
            }
            break;
        }
    });
}

void
InvariantChecker::checkCachesAgainstDirectory(uint64_t when) const
{
    for (uint32_t p = 0; p < caches_.size(); ++p) {
        for (const Cache::Frame &f : caches_[p].frames()) {
            if (!f.valid())
                continue;
            const Directory::Entry *e = directory_.find(f.tag);
            if (!e || !e->isSharer(p)) {
                util::panic(util::concat(
                    "coherence invariant violated at ref ", when,
                    ": cache ", p, " holds a block the directory does "
                    "not attribute to it [", dumpBlock(f.tag), "]"));
            }
        }
    }
}

void
InvariantChecker::checkL2(uint64_t when) const
{
    if (!l2_)
        return;
    // Inclusion: every L1-resident block is L2-resident.
    for (uint32_t p = 0; p < caches_.size(); ++p) {
        for (const Cache::Frame &f : caches_[p].frames()) {
            if (!f.valid())
                continue;
            if (!l2_->present(f.tag)) {
                util::panic(util::concat(
                    "L2 inclusion violated at ref ", when, ": cache ",
                    p, " holds a block absent from the inclusive L2 [",
                    dumpBlock(f.tag), "]"));
            }
        }
    }
}

void
InvariantChecker::checkCounters(uint64_t when)
{
    util::panicIf(stats_.procs.size() != prev_.size(),
                  "invariant checker: processor count changed mid-run");
    for (size_t p = 0; p < stats_.procs.size(); ++p) {
        const ProcessorStats &ps = stats_.procs[p];
        auto fail = [&](const std::string &why) {
            util::panic(util::concat(
                "accounting invariant violated at ref ", when,
                " on processor ", p, ": ", why, " (instructions=",
                ps.instructions, " memRefs=", ps.memRefs, " hits=",
                ps.hits, " misses=", ps.totalMisses(), ")"));
        };
        if (ps.hits + ps.totalMisses() != ps.memRefs)
            fail("hits + misses != memory references");
        if (ps.memRefs > ps.instructions)
            fail("more memory references than instructions");
        ProcSnapshot &last = prev_[p];
        if (ps.busyCycles < last.busyCycles ||
            ps.switchCycles < last.switchCycles ||
            ps.idleCycles < last.idleCycles ||
            ps.instructions < last.instructions ||
            ps.memRefs < last.memRefs || ps.hits < last.hits ||
            ps.totalMisses() < last.misses) {
            fail("a counter moved backwards since the previous check");
        }
        last = {ps.busyCycles, ps.switchCycles,  ps.idleCycles,
                ps.instructions, ps.memRefs, ps.hits,
                ps.totalMisses()};
    }
}

void
InvariantChecker::check(uint64_t when)
{
    checkDirectoryAgainstCaches(when);
    checkCachesAgainstDirectory(when);
    checkL2(when);
    checkCounters(when);
    ++checksRun_;
}

} // namespace tsp::sim
