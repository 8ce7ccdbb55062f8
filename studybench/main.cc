/**
 * @file
 * tsp-studybench: the repository's end-to-end study benchmark.
 *
 *   tsp-studybench --workload NAME --seed N --seconds S --trace 0|1
 *                  --workdir DIR [--tiny]
 *
 * --trace 0 runs the workload's study untraced for up to S seconds,
 * each pass after a batch of set-ups, then prints the end-to-end
 * metrics (medians over the set-ups and passes). --trace 1 runs two
 * untraced passes and one traced pass, checks that their digests
 * agree, and prints the per-layer metrics. The last line of standard
 * output is one JSON object.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host.h"
#include "ledger.h"
#include "workloads.h"

namespace {

using namespace studybench;

/**
 * Untraced set-ups per run: a batch before each pass, each batch after
 * the first lasting at least a tenth of the pass before it; at least
 * kMinSetUps in all, any missing ones run after the last pass. setup_s
 * is their median.
 */
constexpr size_t kMinSetUps = 5;

struct Args
{
    std::string workload;
    uint64_t seed = 41;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string workdir = ".bench_build/work";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "tsp-studybench: " << why << "\n"
              << "usage: tsp-studybench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] [--tiny]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--workdir")
                args.workdir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        usage("unknown workload '" + args.workload + "'");
    return args;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Nearest-rank percentile @p pct of @p v, or 0 when fewer than ten
 * samples lie beyond it (then it is not a percentile of the run).
 */
double
percentile(std::vector<double> v, size_t pct)
{
    const size_t rank = (pct * v.size() + 99) / 100;
    if (rank == 0 || v.size() - rank < 10)
        return 0;
    std::sort(v.begin(), v.end());
    return v[rank - 1];
}

/** Metrics in output order: name -> (value, unit). */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        order_.push_back(name);
        values_[name] = {value, unit};
    }

    /** One line per metric, for people. */
    void
    print(std::ostream &os) const
    {
        for (const std::string &name : order_) {
            const auto &[value, unit] = values_.at(name);
            os << "  " << name << " = " << value << " " << unit << "\n";
        }
    }

    /** The JSON "metrics" object, every digit kept. */
    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(std::numeric_limits<double>::max_digits10);
        os << "{";
        for (size_t i = 0; i < order_.size(); ++i) {
            const auto &[value, unit] = values_.at(order_[i]);
            os << (i ? ", " : "") << "\"" << order_[i]
               << "\": {\"value\": " << value << ", \"unit\": \"" << unit
               << "\"}";
        }
        os << "}";
        return os.str();
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

std::string
hex(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
};

/**
 * --trace 0: passes for --seconds, each after a batch of set-ups, so
 * set-ups and passes see the same host conditions.
 */
Metrics
endToEnd(Workload &workload, const Args &args, Tally &tally)
{
    std::vector<double> setUps;
    auto setUp = [&] {
        const Clock::time_point start = Clock::now();
        workload.setUp();
        const double ms = msBetween(start, Clock::now());
        setUps.push_back(ms / 1000.0);
        return ms;
    };

    // The next batch (and its pass) runs while it, if it takes as long
    // as the last, still ends within --seconds.
    std::vector<double> studies;
    std::vector<uint32_t> digests;
    double estErrPct = 0;
    double peakRss = 0;
    const Clock::time_point start = Clock::now();
    double batchMs = setUp();  // the first builds the state passes use
    for (;;) {
        const Clock::time_point passStart = Clock::now();
        StudyPass pass = workload.study();
        // The peak is taken after one set-up and one pass, as a single
        // study run has them: later set-ups regenerate what the first
        // keeps, and later passes fragment the heap further.
        if (studies.empty())
            peakRss = peakRssMb();
        studies.push_back(pass.studyS);
        digests.push_back(pass.digest);
        estErrPct = pass.estErrPct;
        tally.attempted += pass.cells;
        tally.failed += pass.failed;
        tally.correct &= pass.checked && pass.failed == 0 &&
                         pass.digest == digests.front();
        std::cout << "pass " << studies.size() << ": study " << pass.studyS
                  << " s, " << pass.cells << " cells, " << pass.failed
                  << " failed, digest " << hex(pass.digest)
                  << (pass.checked ? "" : ", OUTPUT CHECK FAILED") << "\n";
        const Clock::time_point now = Clock::now();
        const double passMs = msBetween(passStart, now);
        if (msBetween(start, now) + batchMs + passMs > args.seconds * 1000.0)
            break;
        // A batch lasts at least a tenth of the last pass, so set-ups
        // take about a tenth of the run wherever it has passes.
        batchMs = 0;
        do {
            batchMs += setUp();
        } while (batchMs < passMs / 10);
    }
    while (setUps.size() < kMinSetUps)
        setUp();

    std::cout << "set-ups (s):";
    for (double s : setUps)
        std::cout << " " << s;
    std::cout << "\ndigest: " << hex(digests.front())
              << (std::all_of(digests.begin(), digests.end(),
                              [&](uint32_t d) { return d == digests[0]; })
                      ? " (every pass)"
                      : " (PASSES DISAGREE)")
              << "\nest_err_pct: " << estErrPct << " %\n";

    Metrics m;
    m.set("setup_s", median(setUps), "s");
    m.set("study_s", median(studies), "s");
    m.set("peak_rss_mb", peakRss, "MB");
    return m;
}

/** --trace 1: two untraced passes, one traced pass, the ledger. */
Metrics
perLayer(Workload &workload, const Args &args, const std::string &runDir,
         Tally &tally)
{
    workload.setUp();
    // A process's first pass runs slower than the next (on paper-figs
    // by up to 40%), so the traced pass is compared with a second
    // untraced pass, run just before it.
    StudyPass first = workload.study();
    StudyPass plain = workload.study();
    TracedRun run;
    StudyPass traced = workload.traced(run);

    tally.attempted = first.cells + plain.cells + traced.cells;
    tally.failed = first.failed + plain.failed + traced.failed;
    tally.correct = first.checked && plain.checked && traced.checked &&
                    tally.failed == 0 && first.digest == plain.digest &&
                    plain.digest == traced.digest;
    std::cout << "study: untraced " << first.studyS << " s, then "
              << plain.studyS << " s; traced " << traced.studyS << " s\n"
              << "digest: untraced " << hex(plain.digest)
              << (first.digest == plain.digest ? "" : " (PASSES DISAGREE)")
              << ", traced " << hex(traced.digest)
              << (plain.digest == traced.digest ? " (equal)" : " (DIFFER)")
              << "\n";
    if (traced.missDigest != 0) {
        std::cout << "miss digest (traced cells only): "
                  << hex(traced.missDigest) << "\n";
    }
    std::cout << "est_err_pct: " << plain.estErrPct << " %\n";

    std::vector<const Tape *> tapes;
    for (const Tape &t : run.tapes)
        tapes.push_back(&t);
    LedgerSummary ledger = summarize(tapes);
    writeSpans(std::filesystem::path(runDir).parent_path() /
                   ("spans-" + args.workload + ".jsonl"),
               tapes);
    LayerCounts counts;
    for (const LayerCounts &c : run.counts)
        counts.merge(c);

    Metrics m;
    auto share = [&](double ms) {
        return ledger.busyMs > 0 ? ms / ledger.busyMs : 0.0;
    };
    const double simMs = ledger.layer("sim");
    const auto place = ledger.calls["core.place"];
    const double persistMs = ledger.call("experiment.persist");
    double cellSum = 0;
    for (double ms : counts.cellMs)
        cellSum += ms;
    double waitSum = 0;
    for (double ms : counts.cellWaitMs)
        waitSum += ms;
    const double cells = static_cast<double>(counts.cellMs.size());

    m.set("sim.ms", simMs, "ms");
    m.set("sim.ns_per_ref",
          counts.simRefs ? simMs * 1e6 / static_cast<double>(counts.simRefs)
                         : 0.0,
          "ns");
    m.set("sim.refs", static_cast<double>(counts.simRefs), "count");
    m.set("sim.cycles", static_cast<double>(counts.simCycles), "cycles");
    const char *missNames[] = {"compulsory", "intra", "inter",
                               "invalidation"};
    for (size_t k = 0; k < 4; ++k) {
        m.set(std::string("sim.miss.") + missNames[k],
              static_cast<double>(counts.misses[k]), "count");
    }
    m.set("sim.inval_sent", static_cast<double>(counts.invalSent), "count");
    m.set("sim.l2_hits", static_cast<double>(counts.l2Hits), "count");
    m.set("sim.l2_misses", static_cast<double>(counts.l2Misses), "count");
    m.set("sim.net_queue_cycles", static_cast<double>(counts.netQueueCycles),
          "cycles");
    m.set("core.place_ms", place.selfMs, "ms");
    m.set("core.place_ms_max", place.maxMs, "ms");
    m.set("core.place_calls", static_cast<double>(place.calls), "count");
    m.set("experiment.persist_ms", persistMs, "ms");
    m.set("experiment.persist_bytes", static_cast<double>(counts.persistBytes),
          "bytes");
    m.set("experiment.persist_amplification",
          run.journalBytes ? static_cast<double>(counts.persistBytes) /
                                 static_cast<double>(run.journalBytes)
                           : 0.0,
          "ratio");
    m.set("experiment.pool_busy_frac",
          run.poolWallMs > 0 ? cellSum / (run.width * run.poolWallMs) : 0.0,
          "ratio");
    m.set("experiment.cell_wait_ms", cells > 0 ? waitSum / cells : 0.0, "ms");
    m.set("experiment.cell_ms.p50", percentile(counts.cellMs, 50), "ms");
    m.set("experiment.cell_ms.p90", percentile(counts.cellMs, 90), "ms");
    m.set("experiment.cell_ms.p99", percentile(counts.cellMs, 99), "ms");
    m.set("experiment.report_ms", ledger.call("experiment.report"), "ms");
    m.set("workload.gen_ms", ledger.layer("workload"), "ms");
    m.set("workload.trace_mb", static_cast<double>(run.traceBytes) / 1e6, "MB");
    m.set("analysis.ms", ledger.layer("analysis"), "ms");
    m.set("sample.plan_ms", ledger.call("sample.plan"), "ms");
    m.set("sample.estimate_ms", ledger.call("sample.estimate"), "ms");
    m.set("sample.sampled_refs", static_cast<double>(counts.sampledRefs),
          "count");
    m.set("sample.refs_ratio",
          counts.sampledRefs ? static_cast<double>(counts.sampledFullRefs) /
                                   static_cast<double>(counts.sampledRefs)
                             : 0.0,
          "ratio");
    m.set("sample.est_err_pct", plain.estErrPct, "%");
    for (const char *layer :
         {"workload", "analysis", "core", "sim", "sample", "experiment"}) {
        m.set(std::string(layer) + ".share", share(ledger.layer(layer)),
              "ratio");
    }
    m.set("experiment.persist_share", share(persistMs), "ratio");
    m.set("ledger.coverage", ledger.coverage, "ratio");
    m.set("ledger.overhead_pct",
          plain.studyS > 0
              ? (traced.studyS - plain.studyS) / plain.studyS * 100.0
              : 0.0,
          "%");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (std::string knob = pinKnobs(); !knob.empty()) {
        std::cerr << "tsp-studybench: refusing to run with " << knob
                  << " set: it would change what is measured\n";
        return 2;
    }

    const std::string runDir =
        args.workdir + "/run-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(runDir, ec);
    std::filesystem::create_directories(runDir);

    auto workload = makeWorkload(args.workload, args.tiny, runDir);
    std::cout << "workload: " << args.workload << (args.tiny ? " (tiny)" : "")
              << ", trace " << args.trace << "\nseed: " << args.seed
              << " (changes no inputs: every workload runs a calibrated "
                 "profile with its own seed)\n"
              << "host: nproc " << std::thread::hardware_concurrency()
              << ", pool width " << kPoolWidth << ", build "
              << STUDYBENCH_BUILD_TYPE << ", journal filesystem "
              << filesystemType(runDir) << "\n";

    const double probeBefore = hostSpeedProbeMs();
    Tally tally;
    Metrics metrics;
    int status = 0;
    try {
        metrics = args.trace ? perLayer(*workload, args, runDir, tally)
                             : endToEnd(*workload, args, tally);
    } catch (const std::exception &e) {
        std::cerr << "tsp-studybench: " << e.what() << "\n";
        status = 1;
    }
    const double probeAfter = hostSpeedProbeMs();
    workload.reset();
    std::filesystem::remove_all(runDir, ec);
    if (status != 0)
        return status;

    std::cout << "host speed probe (not a metric): " << probeBefore
              << " ms before, " << probeAfter << " ms after\n"
              << "cells: " << tally.attempted << " attempted, " << tally.failed
              << " failed\nmetrics:\n";
    metrics.print(std::cout);
    std::cout << "{\"correct\": " << (tally.correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return tally.correct ? 0 : 1;
}
