#include "workloads.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "analysis/static_analysis.h"
#include "core/algorithms.h"
#include "experiment/checkpoint.h"
#include "experiment/lab.h"
#include "experiment/parallel.h"
#include "experiment/report.h"
#include "experiment/sampling_study.h"
#include "experiment/studies.h"
#include "host.h"
#include "sample/sampler.h"
#include "sim/machine.h"
#include "util/checksum.h"
#include "workload/generator.h"
#include "workload/stream.h"
#include "workload/suite.h"

namespace studybench {

namespace ex = tsp::experiment;
namespace wl = tsp::workload;
using tsp::placement::Algorithm;
using tsp::placement::PlacementMap;

namespace {

/** CRC-32 over a sequence of 64-bit values. */
class Digest
{
  public:
    void add(uint64_t v) { crc_ = tsp::util::crc32(&v, sizeof v, crc_); }

    void
    addDouble(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    uint32_t value() const { return crc_; }

  private:
    uint32_t crc_ = 0;
};

double
secondsSince(Clock::time_point start)
{
    return msBetween(start, Clock::now()) / 1000.0;
}

/** Close @p journal and delete its files; returns its final size. */
uint64_t
removeJournal(std::optional<ex::Checkpoint> &journal)
{
    if (!journal)
        return 0;
    const std::string path = journal->path();
    journal.reset();
    std::error_code ec;
    const uint64_t bytes = std::filesystem::file_size(path, ec);
    const bool sized = !ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".tmp", ec);
    return sized ? bytes : 0;
}

/** The digested outputs of one execution-time row. */
void
addRow(Digest &digest, const ex::ExecTimePoint &row)
{
    digest.add(row.cycles);
    digest.addDouble(row.loadImbalance);
}

/** The digested miss components of one cell. */
void
addMisses(Digest &digest, const ex::RunMissSummary &misses)
{
    digest.add(misses.compulsory);
    digest.add(misses.intraConflict);
    digest.add(misses.interConflict);
    digest.add(misses.invalidation);
}

/** The digested outputs of one hierarchy row and its miss components. */
void
addRow(Digest &digest, const ex::HierarchyPoint &row,
       const ex::RunMissSummary &misses)
{
    digest.add(row.cycles);
    digest.add(row.l2Hits);
    digest.add(row.l2Misses);
    digest.add(row.netQueueingCycles);
    addMisses(digest, misses);
}

void
addRun(LayerCounts &counts, const tsp::sim::SimStats &stats)
{
    counts.simRefs += stats.totalMemRefs();
    counts.simCycles += stats.executionTime();
    for (size_t k = 0; k < counts.misses.size(); ++k)
        counts.misses[k] +=
            stats.totalMissCount(static_cast<tsp::sim::MissKind>(k));
    counts.invalSent += stats.totalInvalidationsSent();
    counts.l2Hits += stats.l2Hits;
    counts.l2Misses += stats.l2Misses;
    counts.netQueueCycles += stats.networkQueueingCycles;
}

/**
 * Run cell(i, tape, counts) for every i in [0, n) on @p width threads
 * of the benchmark's own, each cell under a "run.cell" root span. The
 * loop is closed: a thread takes the next cell once its last one is
 * done. Returns the number of cells that threw.
 */
template <typename CellFn>
uint64_t
fanOut(TracedRun &run, size_t n, unsigned width, uint64_t firstCellId,
       CellFn &&cell)
{
    while (run.tapes.size() < 1 + width) {
        run.tapes.emplace_back();
        run.counts.emplace_back();
    }
    run.width = width;
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> failed{0};
    const Clock::time_point start = Clock::now();
    auto worker = [&](unsigned w) {
        Tape &tape = run.tapes[1 + w];
        LayerCounts &counts = run.counts[1 + w];
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            const Clock::time_point begin = Clock::now();
            counts.cellWaitMs.push_back(msBetween(start, begin));
            try {
                Scope root(tape, "run.cell",
                           static_cast<int64_t>(firstCellId + i));
                cell(i, tape, counts);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "traced cell %zu failed: %s\n", i,
                             e.what());
                failed.fetch_add(1);
            }
            counts.cellMs.push_back(msBetween(begin, Clock::now()));
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(width);
    for (unsigned w = 0; w < width; ++w)
        threads.emplace_back(worker, w);
    for (std::thread &t : threads)
        t.join();
    run.poolWallMs += msBetween(start, Clock::now());
    return failed.load();
}

// ------------------------------------------------------------- sweeps

/**
 * paper-figs and journaled-suite: placement sweeps through the study
 * entry points on a pool of kPoolWidth, one study at a time. paper-figs is
 * execTimeStudy on flat-1994 without a journal; journaled-suite is
 * hierarchyStudy over every memory system, journaled to one
 * Checkpoint.
 */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::vector<wl::AppId> apps, uint32_t scale,
                  bool journaled, std::string workdir)
        : apps_(std::move(apps)), scale_(scale), journaled_(journaled),
          workdir_(std::move(workdir)), lab_(scale)
    {
    }

    void setUp() override;
    StudyPass study() override;
    StudyPass traced(TracedRun &run) override;

  private:
    /** Replace the journal with a fresh one (journaled-suite only). */
    void openJournal();

    std::string csvPath(wl::AppId app) const;

    /** The memory systems the sweep covers. */
    std::vector<ex::MemSystem> systems() const;

    std::vector<wl::AppId> apps_;
    uint32_t scale_;
    bool journaled_;
    std::string workdir_;
    ex::Lab lab_;
    bool ready_ = false;
    std::optional<ex::Checkpoint> journal_;
    bool journalFresh_ = false;
    unsigned journalSerial_ = 0;
};

void
SweepWorkload::setUp()
{
    for (wl::AppId app : apps_) {
        if (!ready_) {
            lab_.analysis(app);  // generates the traces, then analyzes
        } else {
            tsp::trace::TraceSet traces =
                wl::generateTraces(wl::profile(app), scale_);
            tsp::analysis::StaticAnalysis::analyze(traces);
        }
    }
    ready_ = true;
    if (journaled_)
        openJournal();
}

void
SweepWorkload::openJournal()
{
    removeJournal(journal_);
    journal_.emplace(workdir_ + "/journal-" +
                         std::to_string(journalSerial_++) + ".tspc",
                     scale_);
    journalFresh_ = true;
}

std::string
SweepWorkload::csvPath(wl::AppId app) const
{
    return workdir_ + "/" + (journaled_ ? "hierarchy-" : "exectime-") +
           wl::appName(app) + ".csv";
}

std::vector<ex::MemSystem>
SweepWorkload::systems() const
{
    if (journaled_)
        return ex::allMemSystems();
    return {ex::MemSystem::Flat1994};
}

StudyPass
SweepWorkload::study()
{
    if (journaled_ && !journalFresh_)
        openJournal();
    journalFresh_ = false;

    std::vector<ex::JobFailure> failures;
    ex::SweepOptions options;
    options.jobs = kPoolWidth;
    options.batch = 1;
    options.failures = &failures;
    options.checkpoint = journaled_ ? &*journal_ : nullptr;
    const auto &algs = tsp::placement::figureAlgorithms();

    std::vector<std::vector<ex::ExecTimePoint>> execRows(apps_.size());
    std::vector<std::vector<ex::HierarchyPoint>> hierRows(apps_.size());
    StudyPass pass;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < apps_.size(); ++i) {
        if (journaled_) {
            hierRows[i] = ex::hierarchyStudy(lab_, apps_[i], algs, options);
            ex::writeHierarchyCsv(csvPath(apps_[i]), hierRows[i]);
        } else {
            execRows[i] = ex::execTimeStudy(lab_, apps_[i], algs, options);
            ex::writeExecTimeCsv(csvPath(apps_[i]), execRows[i]);
        }
    }
    pass.studyS = secondsSince(start);

    // Untimed: the digest and the output checks. Every row simulated,
    // RANDOM rows normalize to exactly 1, and on journaled-suite every
    // cell is in the journal, whose miss components enter the digest.
    Digest digest;
    size_t unique = 0;
    for (size_t i = 0; i < apps_.size(); ++i) {
        unique += ex::standardSweep(static_cast<uint32_t>(
                      lab_.analysis(apps_[i]).threadCount()))
                      .size() *
                  systems().size() * algs.size();
        for (const ex::ExecTimePoint &row : execRows[i]) {
            pass.checked &= !row.failed && row.cycles > 0 &&
                            (row.alg != Algorithm::Random ||
                             row.normalizedToRandom == 1.0);
            addRow(digest, row);
        }
        for (const ex::HierarchyPoint &row : hierRows[i]) {
            pass.checked &= !row.failed && row.cycles > 0 &&
                            (row.alg != Algorithm::Random ||
                             row.normalizedToRandom == 1.0);
            if (row.memSystem == ex::MemSystem::Flat1994) {
                pass.checked &= row.l2Hits == 0 && row.l2Misses == 0 &&
                                row.netQueueingCycles == 0;
            }
            auto journaled = journal_->lookup(
                {apps_[i], row.alg, row.point, false, row.memSystem});
            pass.checked &= journaled.has_value();
            addRow(digest, row,
                   journaled ? journaled->missSummary()
                             : ex::RunMissSummary{});
        }
    }
    pass.cells = unique;
    pass.failed = failures.size();
    if (journaled_)
        pass.checked &= journal_->size() == unique;
    removeJournal(journal_);
    pass.digest = digest.value();
    return pass;
}

StudyPass
SweepWorkload::traced(TracedRun &run)
{
    Tape &main = run.main();
    std::vector<tsp::trace::TraceSet> traces(apps_.size());
    std::vector<std::optional<tsp::analysis::StaticAnalysis>> analyses(
        apps_.size());
    std::optional<ex::Checkpoint> journal;
    {
        Scope setup(main, "run.setup");
        for (size_t i = 0; i < apps_.size(); ++i) {
            {
                Scope s(main, "workload.generate");
                traces[i] = wl::generateTraces(wl::profile(apps_[i]), scale_);
            }
            for (const tsp::trace::ThreadTrace &t : traces[i].threads())
                run.traceBytes += t.residentBytes();
            Scope s(main, "analysis.analyze");
            analyses[i].emplace(
                tsp::analysis::StaticAnalysis::analyze(traces[i]));
        }
        if (journaled_) {
            Scope s(main, "experiment.persist");
            journal.emplace(workdir_ + "/journal-traced.tspc", scale_);
        }
    }

    const auto &algs = tsp::placement::figureAlgorithms();
    StudyPass pass;
    Digest digest;
    Digest missDigest;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < apps_.size(); ++i) {
        const wl::AppId app = apps_[i];
        const tsp::analysis::StaticAnalysis &an = *analyses[i];
        const auto sweep =
            ex::standardSweep(static_cast<uint32_t>(an.threadCount()));

        // The study's own fan-out: per (system, point) the RANDOM
        // baseline, then every other algorithm; rows index into it.
        std::vector<ex::RunJob> jobs;
        std::vector<size_t> rowCell;
        std::vector<size_t> rowBaseline;
        for (ex::MemSystem ms : systems()) {
            for (const ex::MachinePoint &point : sweep) {
                const size_t baseline = jobs.size();
                jobs.push_back({app, Algorithm::Random, point, false, ms});
                for (Algorithm alg : algs) {
                    rowBaseline.push_back(baseline);
                    if (alg == Algorithm::Random) {
                        rowCell.push_back(baseline);
                    } else {
                        rowCell.push_back(jobs.size());
                        jobs.push_back({app, alg, point, false, ms});
                    }
                }
            }
        }

        std::vector<ex::RunResult> results(jobs.size());
        pass.failed += fanOut(
            run, jobs.size(), kPoolWidth, pass.cells,
            [&](size_t c, Tape &tape, LayerCounts &counts) {
                const ex::RunJob &job = jobs[c];
                const tsp::sim::SimConfig cfg = lab_.configFor(
                    job.app, job.point, false, job.memSystem);
                ex::RunResult &r = results[c];
                {
                    Scope s(tape, "core.place");
                    r.placement = lab_.placementFor(job.app, job.alg,
                                                    job.point.processors);
                }
                {
                    Scope s(tape, "sim.simulate");
                    r.stats = tsp::sim::simulate(cfg, traces[i],
                                                 r.placement);
                }
                r.executionTime = r.stats.executionTime();
                r.loadImbalance =
                    r.placement.loadImbalance(an.threadLength());
                addRun(counts, r.stats);
                if (journal) {
                    const uint64_t before = threadBytesWritten();
                    {
                        Scope s(tape, "experiment.persist");
                        journal->record(job, r);
                    }
                    counts.persistBytes += threadBytesWritten() - before;
                }
            });
        pass.cells += jobs.size();

        // The study's rows, in its order, then the report writer.
        Scope report(main, "run.report");
        std::vector<ex::ExecTimePoint> execRows;
        std::vector<ex::HierarchyPoint> hierRows;
        for (size_t row = 0; row < rowCell.size(); ++row) {
            const ex::RunJob &job = jobs[rowCell[row]];
            const ex::RunResult &r = results[rowCell[row]];
            const double normalized =
                static_cast<double>(r.executionTime) /
                static_cast<double>(results[rowBaseline[row]].executionTime);
            const Algorithm alg = algs[row % algs.size()];
            if (journaled_) {
                ex::HierarchyPoint pt;
                pt.memSystem = job.memSystem;
                pt.alg = alg;
                pt.point = job.point;
                pt.cycles = r.executionTime;
                pt.normalizedToRandom = normalized;
                pt.l2Hits = r.stats.l2Hits;
                pt.l2Misses = r.stats.l2Misses;
                pt.netQueueingCycles = r.stats.networkQueueingCycles;
                hierRows.push_back(pt);
                addRow(digest, pt, r.missSummary());
            } else {
                ex::ExecTimePoint pt;
                pt.alg = alg;
                pt.point = job.point;
                pt.cycles = r.executionTime;
                pt.normalizedToRandom = normalized;
                pt.loadImbalance = r.loadImbalance;
                execRows.push_back(pt);
                addRow(digest, pt);
                addMisses(missDigest, r.missSummary());
            }
        }
        Scope s(main, "experiment.report");
        if (journaled_)
            ex::writeHierarchyCsv(csvPath(app), hierRows);
        else
            ex::writeExecTimeCsv(csvPath(app), execRows);
    }
    pass.studyS = secondsSince(start);

    run.journalBytes = removeJournal(journal);
    pass.digest = digest.value();
    if (!journaled_)
        pass.missDigest = missDigest.value();
    return pass;
}

// -------------------------------------------------------- wide-sampled

/**
 * wide-sampled: a 256-processor synthetic trace, streamed and never
 * materialized, run serially as samplingStudy does: one full
 * simulateStreaming reference, then sampleSimulate for the reference
 * configuration and two more that reuse the plan (contended at 256x1,
 * and 128x2 with a round-robin placement).
 */
class WideSampled : public Workload
{
  public:
    WideSampled(bool tiny, std::string workdir)
        : workdir_(std::move(workdir))
    {
        // The profile keeps its own seed: across other seeds the plan's
        // representatives move, and with them the sampled references
        // (up to 4x) and the error (8% to 90%), which would make the
        // benchmark measure the seed rather than the program.
        profile_ = ex::syntheticScaleProfile(256, tiny ? 4'000 : 100'000);
        options_.windowRefs = tiny ? 500 : 2'000;
        options_.clusters = 4;
        options_.warmupWindows = 1;
    }

    void setUp() override;
    StudyPass study() override;
    StudyPass traced(TracedRun &run) override;

  private:
    /** The reference cell's configuration: one thread a processor. */
    tsp::sim::SimConfig referenceConfig() const;

    /** The three sampled cells: (name, config, placement). */
    struct Cell
    {
        std::string name;
        tsp::sim::SimConfig cfg;
        uint32_t processors = 0;  //!< placement width; threads wrap
    };
    std::vector<Cell> sampledCells() const;

    static PlacementMap roundRobin(uint32_t threads, uint32_t processors);

    /** Digest, checks and error of one pass's outputs. */
    void finish(StudyPass &pass, const tsp::sim::SimStats &full,
                const std::vector<tsp::sample::SampleEstimate> &est) const;

    void writeReport(const tsp::sim::SimStats &full,
                     const std::vector<tsp::sample::SampleEstimate> &est,
                     const std::string &path) const;

    wl::AppProfile profile_;
    tsp::sample::SampleOptions options_;
    std::string workdir_;
    std::unique_ptr<wl::AppStreamFactory> factory_;
    std::optional<tsp::sample::SamplePlan> plan_;
};

tsp::sim::SimConfig
WideSampled::referenceConfig() const
{
    tsp::sim::SimConfig cfg;
    cfg.processors = profile_.threads;
    cfg.contexts = 1;
    cfg.cacheBytes = profile_.cacheBytes;
    return cfg;
}

std::vector<WideSampled::Cell>
WideSampled::sampledCells() const
{
    Cell reference{"reference", referenceConfig(), profile_.threads};
    Cell contended = reference;
    contended.name = "contended";
    ex::applyMemSystem(contended.cfg, ex::MemSystem::Contended);
    Cell folded = reference;
    folded.name = "128x2-round-robin";
    folded.cfg.processors = profile_.threads / 2;
    folded.cfg.contexts = 2;
    folded.processors = profile_.threads / 2;
    return {reference, contended, folded};
}

PlacementMap
WideSampled::roundRobin(uint32_t threads, uint32_t processors)
{
    std::vector<uint32_t> procOf(threads);
    for (uint32_t t = 0; t < threads; ++t)
        procOf[t] = t % processors;
    return PlacementMap(processors, std::move(procOf));
}

void
WideSampled::setUp()
{
    plan_.reset();  // a plan is valid only with the factory it came from
    factory_ = std::make_unique<wl::AppStreamFactory>(profile_, 1);
    plan_ = tsp::sample::buildSamplePlan(*factory_, options_,
                                         referenceConfig().blockBytes);
}

StudyPass
WideSampled::study()
{
    const std::vector<Cell> cells = sampledCells();
    StudyPass pass;
    const Clock::time_point start = Clock::now();
    tsp::sim::SimStats full = tsp::sim::simulateStreaming(
        referenceConfig(), *factory_,
        roundRobin(profile_.threads, profile_.threads));
    std::vector<tsp::sample::SampleEstimate> est;
    for (const Cell &cell : cells) {
        est.push_back(tsp::sample::sampleSimulate(
            cell.cfg, *factory_, roundRobin(profile_.threads, cell.processors),
            *plan_));
    }
    writeReport(full, est, workdir_ + "/sampling.csv");
    pass.studyS = secondsSince(start);
    finish(pass, full, est);
    return pass;
}

StudyPass
WideSampled::traced(TracedRun &run)
{
    Tape &main = run.main();
    std::unique_ptr<wl::AppStreamFactory> factory;
    std::optional<tsp::sample::SamplePlan> plan;
    {
        Scope setup(main, "run.setup");
        {
            Scope s(main, "workload.generate");
            factory = std::make_unique<wl::AppStreamFactory>(profile_, 1);
        }
        Scope s(main, "sample.plan");
        plan = tsp::sample::buildSamplePlan(*factory, options_,
                                            referenceConfig().blockBytes);
    }

    const std::vector<Cell> cells = sampledCells();
    StudyPass pass;
    tsp::sim::SimStats full;
    std::vector<tsp::sample::SampleEstimate> est(cells.size());
    const Clock::time_point start = Clock::now();
    pass.failed = fanOut(
        run, 1 + cells.size(), 1, 0,
        [&](size_t c, Tape &tape, LayerCounts &counts) {
            // The benchmark's own placement, not a src/core call, so it
            // stays under the run.cell root.
            const PlacementMap placement = roundRobin(
                profile_.threads,
                c == 0 ? profile_.threads : cells[c - 1].processors);
            if (c == 0) {
                size_t resident = 0;
                {
                    Scope s(tape, "sim.simulate_streaming");
                    full = tsp::sim::simulateStreaming(
                        referenceConfig(), *factory, placement,
                        tsp::trace::SharedTraceStream::kDefaultChunkEvents,
                        &resident);
                }
                run.traceBytes = resident;
                addRun(counts, full);
                return;
            }
            {
                Scope s(tape, "sample.estimate");
                est[c - 1] = tsp::sample::sampleSimulate(
                    cells[c - 1].cfg, *factory, placement, *plan);
            }
            counts.sampledRefs += est[c - 1].sampledRefs;
            counts.sampledFullRefs += est[c - 1].fullRefs;
        });
    {
        Scope report(main, "run.report");
        Scope s(main, "experiment.report");
        writeReport(full, est, workdir_ + "/sampling-traced.csv");
    }
    pass.studyS = secondsSince(start);
    finish(pass, full, est);
    return pass;
}

void
WideSampled::finish(StudyPass &pass, const tsp::sim::SimStats &full,
                    const std::vector<tsp::sample::SampleEstimate> &est) const
{
    Digest digest;
    digest.add(full.executionTime());
    for (size_t k = 0; k < 4; ++k)
        digest.add(full.totalMissCount(static_cast<tsp::sim::MissKind>(k)));
    // Every estimate covers the whole trace the reference simulated.
    pass.checked = full.executionTime() > 0;
    for (const tsp::sample::SampleEstimate &e : est) {
        digest.add(e.execTime);
        digest.add(e.totalMisses);
        digest.add(e.invalidationsSent);
        pass.checked &= e.execTime > 0 && e.sampledRefs > 0 &&
                        e.fullRefs == full.totalMemRefs();
    }
    pass.cells = 1 + est.size();
    pass.digest = digest.value();
    const double actual = static_cast<double>(full.executionTime());
    pass.estErrPct = actual > 0
        ? std::fabs(static_cast<double>(est.front().execTime) - actual) /
              actual * 100.0
        : 0.0;
}

void
WideSampled::writeReport(const tsp::sim::SimStats &full,
                         const std::vector<tsp::sample::SampleEstimate> &est,
                         const std::string &path) const
{
    const std::vector<Cell> cells = sampledCells();
    ex::SamplingStudy report;
    for (size_t i = 0; i < est.size(); ++i) {
        ex::SamplingCell row;
        row.app = profile_.name + "/" + cells[i].name;
        row.processors = cells[i].cfg.processors;
        row.contexts = cells[i].cfg.contexts;
        row.windowRefs = options_.windowRefs;
        row.clustersRequested = options_.clusters;
        row.clustersFound = est[i].clusters;
        row.windows = est[i].windows;
        row.estExecTime = est[i].execTime;
        row.fullRefs = est[i].fullRefs;
        row.sampledRefs = est[i].sampledRefs;
        row.refsRatio = est[i].sampledRefs
            ? static_cast<double>(est[i].fullRefs) /
                  static_cast<double>(est[i].sampledRefs)
            : 0.0;
        if (i == 0) {
            // Only the reference configuration has a full run.
            row.actualExecTime = full.executionTime();
            row.errorPct =
                std::fabs(static_cast<double>(row.estExecTime) -
                          static_cast<double>(row.actualExecTime)) /
                static_cast<double>(row.actualExecTime) * 100.0;
        }
        report.cells.push_back(row);
    }
    ex::writeSamplingCsv(path, report);
}

} // namespace

void
LayerCounts::merge(const LayerCounts &o)
{
    simRefs += o.simRefs;
    simCycles += o.simCycles;
    for (size_t k = 0; k < misses.size(); ++k)
        misses[k] += o.misses[k];
    invalSent += o.invalSent;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    netQueueCycles += o.netQueueCycles;
    persistBytes += o.persistBytes;
    sampledRefs += o.sampledRefs;
    sampledFullRefs += o.sampledFullRefs;
    cellMs.insert(cellMs.end(), o.cellMs.begin(), o.cellMs.end());
    cellWaitMs.insert(cellWaitMs.end(), o.cellWaitMs.begin(),
                      o.cellWaitMs.end());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-figs", "journaled-suite", "wide-sampled"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, bool tiny, const std::string &workdir)
{
    using wl::AppId;
    if (name == "paper-figs") {
        return std::make_unique<SweepWorkload>(
            std::vector<AppId>{AppId::LocusRoute, AppId::FFT,
                               AppId::BarnesHut},
            tiny ? 64 : 1, false, workdir);
    }
    if (name == "journaled-suite") {
        // Gauss's placement cost explodes past scale 64 (the clustering
        // cliff), so the smoke size keeps the scale and drops apps.
        return std::make_unique<SweepWorkload>(
            tiny ? std::vector<AppId>{AppId::Water, AppId::FFT}
                 : wl::allApps(),
            64, true, workdir);
    }
    if (name == "wide-sampled")
        return std::make_unique<WideSampled>(tiny, workdir);
    return nullptr;
}

} // namespace studybench
