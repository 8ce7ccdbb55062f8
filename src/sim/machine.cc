#include "sim/machine.h"

#include <algorithm>
#include <bit>

#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "obs/timer.h"
#include "util/bits.h"
#include "util/error.h"

namespace tsp::sim {

Machine::Machine(const SimConfig &cfg, const trace::TraceSource &source,
                 const placement::PlacementMap &placement)
    : cfg_(cfg), source_(&source),
      directory_(cfg.processors, cfg.protocol),
      interconnect_(cfg), events_(cfg.processors)
{
    cfg_.validate();
    const uint32_t threads = source.threadCount();
    util::fatalIf(placement.threadCount() != threads,
                  "placement and trace set disagree on thread count");
    util::fatalIf(placement.processors() != cfg_.processors,
                  "placement and config disagree on processor count");
    blockShift_ = util::log2Floor(cfg_.blockBytes);

    procs_.resize(cfg_.processors);
    caches_.reserve(cfg_.processors);
    for (uint32_t p = 0; p < cfg_.processors; ++p) {
        caches_.emplace_back(cfg_);
        procs_[p].ctxs.resize(cfg_.contexts);
    }
    stats_.procs.resize(cfg_.processors);
    stats_.coherencePairs = stats::PairMatrix(threads);
    scheduledAt_.assign(cfg_.processors, kNoEvent);
    framesPerCache_ = caches_[0].numFrames();
    frameDir_.assign(cfg_.processors * framesPerCache_, nullptr);

    // Pre-size every hash table and queue from the trace census so the
    // event loop never rehashes or reallocates (the allocation-free
    // steady state tests/sim_alloc_test.cc pins). A streamed source
    // runs a dedicated census pass (memoized across lanes).
    const trace::TraceSource::TouchedBlocks &touched =
        source.touchedBlocks(blockShift_);
    directory_.reserveBlocks(touched.total);
    barrierWaiters_.reserve(threads);
    if (cfg_.l2Bytes > 0)
        l2_.emplace(cfg_);
    if (cfg_.profileSharing)
        monitor_.emplace();
    if (cfg_.paranoidEvery > 0) {
        checker_.emplace(directory_, caches_, stats_,
                         l2_ ? &*l2_ : nullptr);
        refsUntilCheck_ = cfg_.paranoidEvery;
    }

    // Barrier discovery and validation: either no thread uses
    // barriers, or all threads execute the same number of them.
    uint64_t barriers = threads ? source.barrierCount(0) : 0;
    bool anyBarriers = false;
    for (uint32_t tid = 0; tid < threads; ++tid) {
        util::fatalIf(source.barrierCount(tid) != barriers,
                      "all threads must execute the same barrier "
                      "sequence");
        anyBarriers |= source.barrierCount(tid) > 0;
    }
    if (anyBarriers)
        barrierParticipants_ = threads;

    // Distribute each processor's threads over its hardware contexts;
    // overflow threads wait in the pending queue.
    auto clusters = placement.clusters();
    for (uint32_t p = 0; p < cfg_.processors; ++p) {
        Proc &proc = procs_[p];
        size_t c = 0;
        uint64_t historyBlocks = 0;
        for (uint32_t tid : clusters[p]) {
            historyBlocks += touched.perThread[tid];
            if (c < proc.ctxs.size()) {
                loadThread(proc, c++, tid, 0);
            } else {
                util::fatalIf(barrierParticipants_ > 0,
                              "barrier traces require every thread to "
                              "be resident (threads <= processors x "
                              "contexts)");
                proc.pending.push_back(tid);
            }
        }
        // History keys are a subset of the blocks this cache ever
        // held, which is bounded by what its threads touch.
        caches_[p].reserveHistory(historyBlocks);
    }
}

void
Machine::loadThread(Proc &proc, size_t c, uint32_t tid, uint64_t now)
{
    Context &ctx = proc.ctxs[c];
    ctx.thread = static_cast<int32_t>(tid);
    ctx.cursor.emplace(source_->openThread(tid));
    ctx.readyAt = now;
    if (c < 64)
        proc.liveMask |= 1ull << c;
    if (ctx.cursor->done())  // empty trace: retire on its next step
        proc.needsReap = true;
}

void
Machine::reapFinished(uint32_t p, uint64_t now)
{
    Proc &proc = procs_[p];
    // needsReap is raised whenever a context's trace runs dry and
    // stays up until every finished context has been unloaded, so
    // skipping the scan here never delays a retirement.
    if (!proc.needsReap)
        return;
    bool doneRemains = false;
    for (size_t c = 0; c < proc.ctxs.size(); ++c) {
        Context &ctx = proc.ctxs[c];
        if (ctx.thread < 0 || !ctx.cursor->done())
            continue;
        if (ctx.hasPending || ctx.readyAt > now) {
            doneRemains = true;  // finished, but not yet retirable
            continue;
        }
        // finishTime was recorded when the last chunk retired.
        ctx.thread = -1;
        ctx.cursor.reset();
        if (c < 64)
            proc.liveMask &= ~(1ull << c);
        if (!proc.pending.empty()) {
            uint32_t tid = proc.pending.front();
            proc.pending.pop_front();
            loadThread(proc, c, tid, now);
            // A just-loaded empty trace is itself due for reaping.
            doneRemains |= proc.ctxs[c].cursor->done();
        }
    }
    proc.needsReap = doneRemains;
}

int32_t
Machine::pickReady(const Proc &proc, uint64_t now) const
{
    const size_t n = proc.ctxs.size();
    // A context runs until it misses (Section 3.2): keep the active
    // context whenever it is still ready.
    if (proc.active >= 0) {
        const Context &active =
            proc.ctxs[static_cast<size_t>(proc.active)];
        if (active.thread >= 0 && active.readyAt <= now)
            return proc.active;
    }
    // Otherwise round-robin starting after the active context (an
    // unset active of -1 wraps to context 0 first).
    const size_t start =
        static_cast<size_t>(proc.active + 1) % n;
    if (n > 4 && n <= 64) {
        // Wide context files: walk only the loaded contexts via the
        // live bitmask, in the same rotated order as the linear scan.
        const uint64_t lowBits = (1ull << start) - 1;
        uint64_t wrap[2] = {proc.liveMask & ~lowBits,
                            proc.liveMask & lowBits};
        for (uint64_t m : wrap) {
            while (m != 0) {
                size_t c = static_cast<size_t>(std::countr_zero(m));
                m &= m - 1;
                if (proc.ctxs[c].readyAt <= now)
                    return static_cast<int32_t>(c);
            }
        }
        return -1;
    }
    for (size_t k = 0; k < n; ++k) {
        size_t c = (start + k) % n;
        const Context &ctx = proc.ctxs[c];
        if (ctx.thread >= 0 && ctx.readyAt <= now)
            return static_cast<int32_t>(c);
    }
    return -1;
}

std::optional<uint64_t>
Machine::nextWake(const Proc &proc) const
{
    std::optional<uint64_t> wake;
    for (const Context &ctx : proc.ctxs) {
        if (ctx.thread < 0 || ctx.readyAt == kWaiting)
            continue;
        if (!wake || ctx.readyAt < *wake)
            wake = ctx.readyAt;
    }
    return wake;
}

void
Machine::barrierArrive(uint32_t p, size_t c, uint64_t now)
{
    util::panicIf(barrierParticipants_ == 0,
                  "barrier event in a barrier-free run");
    Context &ctx = procs_[p].ctxs[c];
    ctx.readyAt = kWaiting;
    ctx.barrierArriveAt = now;
    barrierWaiters_.emplace_back(p, static_cast<uint32_t>(c));
    if (++barrierArrived_ == barrierParticipants_)
        releaseBarrier(now);
}

void
Machine::releaseBarrier(uint64_t now)
{
    for (auto [p, c] : barrierWaiters_) {
        Context &ctx = procs_[p].ctxs[c];
        stats_.procs[p].barrierCycles += now - ctx.barrierArriveAt;
        ctx.readyAt = now;
        if (ctx.cursor->done()) {
            stats_.procs[p].finishTime =
                std::max(stats_.procs[p].finishTime, now);
        }
        schedule(p, now);
    }
    barrierWaiters_.clear();
    barrierArrived_ = 0;
}

bool
Machine::access(uint32_t p, uint32_t tid, uint64_t block, bool isStore)
{
    TSP_FAULT_POINT("sim.step");
    if (checker_) {
        // Validate between accesses, when the caches and directory are
        // guaranteed to agree; ++refsSeen_ labels any violation dump.
        ++refsSeen_;
        if (--refsUntilCheck_ == 0) {
            refsUntilCheck_ = cfg_.paranoidEvery;
            checker_->check(refsSeen_);
        }
    }
    ProcessorStats &ps = stats_.procs[p];
    Cache &cache = caches_[p];
    ++ps.memRefs;
    if (monitor_)
        monitor_->onAccess(block, tid, isStore);

    if (Cache::Frame *hit = cache.lookup(block)) {
        ++ps.hits;
        cache.touch(*hit);
        if (accessObserver_) {
            accessObserver_(p, tid, block, isStore, true,
                            MissKind::Compulsory);
        }
        if (isStore) {
            if (hit->state == CoherenceState::Shared ||
                hit->state == CoherenceState::Owned) {
                // Upgrade: gain ownership, invalidating remote copies
                // (a MOESI Owned copy has sharers too — same path).
                // The write retires without stalling: the paper's
                // context switches are triggered by misses only.
                auto txn = directory_.write(p, tid, block);
                ++ps.upgrades;
                applyInvalidations(p, tid, txn, block);
            }
            // After the upgrade, or silently from E/M.
            hit->state = CoherenceState::Modified;
        }
        hit->threadId = tid;
        return false;
    }

    Cache::Frame &frame = cache.victimFor(block);
    Directory::Entry *&frameEntry =
        frameDir_[p * framesPerCache_ +
                  static_cast<size_t>(&frame - cache.frames().data())];

    // Miss: classify from this cache's departure history.
    auto [kind, writer] = cache.classifyMissAndWriter(block, tid);
    ++ps.misses[static_cast<size_t>(kind)];
    if (accessObserver_)
        accessObserver_(p, tid, block, isStore, false, kind);
    if (writer >= 0 && static_cast<uint32_t>(writer) != tid)
        stats_.coherencePairs.add(tid, static_cast<uint32_t>(writer),
                                  1.0);

    // Evict the current occupant (with a directory notification, so
    // sharer sets stay exact), through the entry handle cached when
    // the frame was filled — no tag re-hash.
    if (frame.valid()) {
        bool wasDirty = frame.dirty();
        if (wasDirty)
            ++ps.writebacks;
        directory_.evictEntry(p, frameEntry);
        cache.recordEviction(frame.tag, tid);
        // The writeback lands in the L2 copy (inclusion guarantees
        // it exists).
        if (l2_ && wasDirty)
            l2_->markDirty(frame.tag);
    }

    // Fill latency: full memory unless the shared L2 has the block.
    missFillCycles_ = cfg_.memoryLatency;
    if (l2_) {
        if (l2_->lookup(block)) {
            ++stats_.l2Hits;
            missFillCycles_ = cfg_.l2HitLatency;
        } else {
            ++stats_.l2Misses;
            SharedL2::Victim v = l2_->insert(block, false);
            if (v.evicted)
                backInvalidateL1s(v.block, v.dirty, tid);
        }
    }

    Directory::Txn txn;
    if (isStore) {
        txn = directory_.write(p, tid, block);
        applyInvalidations(p, tid, txn, block);
        frame.state = CoherenceState::Modified;
    } else {
        txn = directory_.read(p, tid, block);
        if (txn.downgradeOwner) {
            Cache::Frame *ownerFrame =
                caches_[txn.prevOwner].lookup(block);
            util::panicIf(ownerFrame == nullptr,
                          "directory owner does not hold the block");
            if (cfg_.protocol == Protocol::Moesi &&
                ownerFrame->state == CoherenceState::Modified) {
                // MOESI: the dirty copy stays put (M -> O, no
                // writeback); the directory entered SharedOwned.
                ownerFrame->state = CoherenceState::Owned;
            } else {
                if (ownerFrame->state == CoherenceState::Modified)
                    ++stats_.procs[txn.prevOwner].writebacks;
                ownerFrame->state = CoherenceState::Shared;
                if (cfg_.protocol == Protocol::Moesi) {
                    // Clean owner: nothing to keep supplying —
                    // collapse the tentative SharedOwned state.
                    directory_.demoteToShared(txn.entry);
                }
            }
        }
        frame.state = txn.grantedExclusive ? CoherenceState::Exclusive
                                           : CoherenceState::Shared;
    }

    if (kind == MissKind::Compulsory && txn.blockSeenBefore) {
        // Never in this cache, yet known to the directory: the block
        // was first touched by a remote processor. This is exactly the
        // compulsory-miss component sharing-based placement hopes to
        // remove (Section 1).
        ++stats_.sharingCompulsoryMisses;
        int32_t other = txn.prevLastWriter >= 0 ? txn.prevLastWriter
                                                : txn.prevLastToucher;
        if (other >= 0 && static_cast<uint32_t>(other) != tid)
            stats_.coherencePairs.add(tid, static_cast<uint32_t>(other),
                                      1.0);
    }

    frame.tag = block;
    frame.threadId = tid;
    frameEntry = txn.entry;
    cache.touch(frame);
    return true;
}

void
Machine::applyInvalidations(uint32_t causerProc, uint32_t causerTid,
                            const Directory::Txn &txn, uint64_t block)
{
    if (!txn.anyInvalidate())
        return;
    txn.forEachInvalidate([&](uint32_t v) {
        util::panicIf(v == causerProc, "self-invalidation");
        int32_t resident = caches_[v].invalidate(block, causerTid);
        util::panicIf(resident < 0,
                      "directory sharer does not hold the block");
        ++stats_.procs[causerProc].invalidationsSent;
        ++stats_.procs[v].invalidationsReceived;
        if (static_cast<uint32_t>(resident) != causerTid)
            stats_.coherencePairs.add(causerTid,
                                      static_cast<uint32_t>(resident),
                                      1.0);
    });
}

void
Machine::backInvalidateL1s(uint64_t vblock, bool l2Dirty,
                           uint32_t causerTid)
{
    if (l2Dirty)
        ++stats_.l2Writebacks;
    const Directory::Entry *e = directory_.find(vblock);
    if (!e || e->sharerCount() == 0)
        return;
    // Snapshot the sharer set: each evict notification shrinks it.
    SharerSet sharers = e->sharers;
    sharers.forEach([&](uint32_t sp) {
        Cache::BackInval bi =
            caches_[sp].backInvalidate(vblock, causerTid);
        util::panicIf(!bi.present,
                      "directory sharer does not hold the "
                      "back-invalidated block");
        if (bi.wasDirty)
            ++stats_.procs[sp].writebacks;
        directory_.evict(sp, vblock);
        ++stats_.l2BackInvalidations;
    });
}

SimStats
Machine::run()
{
    util::fatalIf(started_, "a Machine can only run once");
    advance(0);
    return finish();
}

bool
Machine::advance(uint64_t maxChains)
{
    util::fatalIf(finished_, "machine already finished");
    if (complete_)
        return true;
    if (!started_) {
        started_ = true;
        for (uint32_t p = 0; p < cfg_.processors; ++p)
            schedule(p, 0);
    }

    uint64_t chains = 0;
    while (true) {
        if (maxChains != 0 && chains++ == maxChains)
            return false;
        if (treeStale_) {
            events_.rebuild(scheduledAt_);
            treeStale_ = false;
        }
        // Earliest pending event from the event tree, ties to the
        // lowest processor id (the order the golden digests pin). The
        // runner-up's time is the chain horizon: the picked processor
        // runs until its local time passes it (docs/performance.md).
        uint64_t now = events_.winnerTime();
        if (now == kNoEvent)
            break;
        const uint32_t p = events_.winner();
        uint64_t horizon = events_.horizon();
        scheduledAt_[p] = kNoEvent;
        rescheduled_ = false;

        Proc &proc = procs_[p];
        ProcessorStats &ps = stats_.procs[p];

        // Chain: one micro-step (commit a pending interaction, fetch
        // the next chunk, or go idle until a wake) per iteration, for
        // as long as this processor stays at or before every other
        // processor's next event. Inlined into the selection loop — not
        // a per-event function call — because at high processor counts a
        // chain is barely one micro-step long (docs/performance.md).
        // Identical micro-step semantics to processing one event at a
        // time through a scheduler queue, minus the dispatch overhead.
        for (;;) {
            // A barrier release inside a previous iteration may have
            // moved another processor's event up: refresh the cached
            // horizon.
            if (rescheduled_) {
                horizon = minScheduled();
                rescheduled_ = false;
            }
            if (now > horizon) {
                // Yield: this supersedes any event the processor
                // scheduled for itself mid-chain (barrier
                // self-release).
                scheduledAt_[p] = now;
                break;
            }

            // Close an open idle window (lazy accounting: a barrier
            // release may have cut the window short of the wake time
            // estimated when the processor went idle).
            if (proc.idleSince) {
                util::panicIf(*proc.idleSince > now,
                              "idle window in the future");
                ps.idleCycles += now - *proc.idleSince;
                proc.idleSince.reset();
            }

            // Guard the reap scan here so the common no-reap
            // micro-step pays one predictable branch instead of a
            // function call.
            if (proc.needsReap)
                reapFinished(p, now);

            // Fast path: the active context runs until it misses, so
            // most micro-steps re-pick the context that just ran.
            int32_t c = proc.active;
            if (c < 0 ||
                proc.ctxs[static_cast<size_t>(c)].thread < 0 ||
                proc.ctxs[static_cast<size_t>(c)].readyAt > now)
                c = pickReady(proc, now);
            if (c < 0) {
                auto wake = nextWake(proc);
                proc.idleSince = now;
                if (!wake) {
                    // Finished or all contexts barrier-blocked: no
                    // next event. The explicit clear supersedes any
                    // mid-chain barrier self-schedule.
                    scheduledAt_[p] = kNoEvent;
                    break;
                }
                util::panicIf(*wake <= now,
                              "stalled wake time in the past");
                now = *wake;
                continue;
            }

            if (proc.active != c) {
                // Context switch: pipeline drain (Section 3.2).
                if (proc.active >= 0) {
                    ps.switchCycles += cfg_.contextSwitchCycles;
                    now += cfg_.contextSwitchCycles;
                }
                proc.active = c;
            }

            Context &ctx = proc.ctxs[static_cast<size_t>(c)];

            if (ctx.hasPending) {
                // Commit the interaction that the preceding work run
                // led to. This runs at its exact global time: later
                // events of other processors were processed first.
                ctx.hasPending = false;
                if (ctx.pendingBarrier) {
                    barrierArrive(p, static_cast<size_t>(c), now);
                    if (ctx.cursor->done() && ctx.readyAt != kWaiting) {
                        // Trailing barrier, and this arrival released
                        // it.
                        ps.finishTime = std::max(ps.finishTime, now);
                    }
                    continue;
                }
                ps.instructions += 1;
                bool miss =
                    access(p, static_cast<uint32_t>(ctx.thread),
                           ctx.pendingBlock, ctx.pendingStore);
                ps.busyCycles += cfg_.hitLatency;
                now += cfg_.hitLatency;
                if (miss)
                    ctx.readyAt =
                        now +
                        interconnect_.queueDelay(now,
                                                 ctx.pendingBlock) +
                        missFillCycles_;
                if (ctx.cursor->done()) {
                    // The thread's last instruction retires when its
                    // final memory operation completes.
                    ps.finishTime = std::max(ps.finishTime,
                                             miss ? ctx.readyAt : now);
                }
                continue;
            }

            if (ctx.cursor->done()) {
                // Loaded an empty trace, or resumed purely to retire:
                // record completion and let reapFinished unload it.
                ps.finishTime = std::max(ps.finishTime, now);
                ctx.readyAt = now;
                proc.needsReap = true;
                reapFinished(p, now);
                continue;
            }

            trace::TraceCursor::Chunk chunk = ctx.cursor->next();
            ps.busyCycles += chunk.work;
            ps.instructions += chunk.work;
            now += chunk.work;
            if (ctx.cursor->done())
                proc.needsReap = true;

            if (chunk.hasRef || chunk.isBarrier) {
                ctx.hasPending = true;
                ctx.pendingBarrier = chunk.isBarrier;
                ctx.pendingStore = chunk.isStore;
                // Translate address to block once, at fetch; the
                // commit path (and barrier-delayed replays) reuse the
                // block.
                ctx.pendingBlock = chunk.addr >> blockShift_;
                ctx.readyAt = now;
            } else if (ctx.cursor->done()) {
                ps.finishTime = std::max(ps.finishTime, now);
            }
        }
        // Only this processor's time moved, unless a barrier release
        // rescheduled others: then the next chain rebuilds instead.
        if (!treeStale_)
            events_.replayWinner(scheduledAt_[p]);
    }

    complete_ = true;
    return true;
}

SimStats
Machine::finish()
{
    util::fatalIf(!complete_,
                  "finish() before the simulation completed");
    util::fatalIf(finished_, "finish() may only be called once");
    finished_ = true;

    // Safety net: everything must have retired (a mismatched barrier
    // structure or an overflowed context pool would strand contexts).
    for (uint32_t p = 0; p < cfg_.processors; ++p) {
        for (const Context &ctx : procs_[p].ctxs) {
            util::fatalIf(ctx.thread >= 0,
                          "simulation ended with unfinished threads "
                          "(barrier deadlock?)");
        }
        util::fatalIf(!procs_[p].pending.empty(),
                      "simulation ended with unstarted threads");
    }

    if (checker_)
        checker_->check(refsSeen_);  // final end-of-run validation

    if (monitor_) {
        stats_.sharingProfile = monitor_->finalize();
        stats_.profiledSharing = true;
    }
    stats_.networkTransactions = interconnect_.transactions();
    stats_.networkQueueingCycles = interconnect_.queueingCycles();
    stats_.networkMaxQueueing = interconnect_.maxQueueing();
    // L2 counters accumulate directly into stats_ during access().
    return std::move(stats_);
}

void
recordRunMetrics(const SimStats &stats, const Machine &machine,
                 double wallMillis)
{
    obs::simRunMillis().observe(wallMillis);
    if (!obs::metricsEnabled())
        return;
    obs::simRuns().inc();
    obs::simInstructions().add(stats.totalInstructions());
    obs::simMemRefs().add(stats.totalMemRefs());
    obs::simMissCompulsory().add(
        stats.totalMissCount(MissKind::Compulsory));
    obs::simMissIntraConflict().add(
        stats.totalMissCount(MissKind::IntraConflict));
    obs::simMissInterConflict().add(
        stats.totalMissCount(MissKind::InterConflict));
    obs::simMissInvalidation().add(
        stats.totalMissCount(MissKind::Invalidation));
    obs::simInvalidationsSent().add(stats.totalInvalidationsSent());
    obs::simUpgrades().add(stats.totalUpgrades());
    obs::simDirEntries().set(
        static_cast<double>(machine.directoryEntries()));
    obs::simHistoryEntries().set(
        static_cast<double>(machine.historyEntries()));
    obs::simL2Hits().add(stats.l2Hits);
    obs::simL2Misses().add(stats.l2Misses);
    obs::simNetQueueDelay().add(stats.networkQueueingCycles);
}

SimStats
simulate(const SimConfig &cfg, const trace::TraceSource &source,
         const placement::PlacementMap &placement)
{
    obs::StopWatch watch;
    Machine machine(cfg, source, placement);
    SimStats stats = machine.run();
    // Per-run aggregation at the simulate() boundary: one batch of
    // counter adds per run, zero accounting in the event loop.
    recordRunMetrics(stats, machine, watch.elapsedMs());
    return stats;
}

SimStats
simulateStreaming(const SimConfig &cfg, trace::StreamFactory &factory,
                  const placement::PlacementMap &placement,
                  size_t chunkEvents, size_t *residentBytesOut)
{
    trace::SharedTraceStream stream(factory, /*lanes=*/1, chunkEvents);
    SimStats stats = simulate(cfg, stream.lane(0), placement);
    size_t residentBytes =
        stream.windowEventsHighWater() * sizeof(trace::TraceEvent);
    obs::traceResidentBytes().set(
        static_cast<int64_t>(residentBytes));
    if (residentBytesOut)
        *residentBytesOut = residentBytes;
    return stats;
}

} // namespace tsp::sim
