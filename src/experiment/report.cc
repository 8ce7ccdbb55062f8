#include "experiment/report.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "core/algorithms.h"
#include "fault/fault.h"
#include "util/error.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/table.h"
#include "workload/suite.h"

namespace tsp::experiment {

struct CsvWriter::Impl
{
    std::ofstream os;
    size_t width = 0;
    bool headerWritten = false;
};

CsvWriter::CsvWriter(const std::string &path) : impl_(new Impl)
{
    impl_->os.open(path);
    util::fatalIf(!impl_->os, "cannot open CSV for writing: " + path);
}

CsvWriter::~CsvWriter()
{
    close();
}

void
CsvWriter::close()
{
    if (impl_->os.is_open()) {
        impl_->os.flush();
        impl_->os.close();
    }
}

std::string
csvQuote(const std::string &cell)
{
    bool needs = cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    TSP_FAULT_POINT("report.write");
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i)
            impl_->os << ',';
        impl_->os << csvQuote(cells[i]);
    }
    impl_->os << '\n';
    util::fatalIf(!impl_->os, "CSV write failed");
}

void
CsvWriter::header(const std::vector<std::string> &cells)
{
    util::fatalIf(impl_->headerWritten, "CSV header already written");
    impl_->width = cells.size();
    impl_->headerWritten = true;
    writeRow(cells);
}

void
CsvWriter::row(const std::vector<std::string> &cells)
{
    util::fatalIf(!impl_->headerWritten,
                  "CSV rows need a header first");
    util::fatalIf(cells.size() != impl_->width,
                  "CSV row width does not match header");
    writeRow(cells);
}

std::optional<std::string>
outputDirectory()
{
    const char *dir = std::getenv("TSP_OUT");
    if (!dir || !*dir)
        return std::nullopt;
    return std::string(dir);
}

namespace {

std::string
num(double x)
{
    return util::fmtFixed(x, 6);
}

/** Append @p value to @p seen unless already there; returns its index. */
template <typename T>
size_t
indexOf(std::vector<T> &seen, const T &value)
{
    auto it = std::find(seen.begin(), seen.end(), value);
    if (it != seen.end())
        return static_cast<size_t>(it - seen.begin());
    seen.push_back(value);
    return seen.size() - 1;
}

/** The "status" CSV cell of a row: "ok", or why it has no result. */
template <typename Row>
std::string
statusCell(const Row &row)
{
    if (row.cancelled)
        return "cancelled: " + row.error;
    return row.failed ? "failed: " + row.error : "ok";
}

} // namespace

std::string
renderFailureSummary(const std::vector<JobFailure> &failures)
{
    if (failures.empty())
        return "";
    std::string out = "sweep failures: " +
                      std::to_string(failures.size()) + "\n";
    for (const auto &f : failures)
        out += "  - " + f.describe() + "\n";
    return out;
}

void
writeFailuresCsv(const std::string &path,
                 const std::vector<JobFailure> &failures)
{
    CsvWriter csv(path);
    csv.header({"application", "algorithm", "processors", "contexts",
                "infinite_cache", "mem_system", "error"});
    for (const auto &f : failures) {
        csv.row({workload::appName(f.job.app),
                 placement::algorithmName(f.job.alg),
                 std::to_string(f.job.point.processors),
                 std::to_string(f.job.point.contexts),
                 f.job.infiniteCache ? "1" : "0",
                 memSystemName(f.job.memSystem), f.error});
    }
}

std::string
renderSweepTables(const std::string &title,
                  const std::vector<SweepRow> &rows)
{
    std::vector<MemSystem> systems;
    std::vector<placement::Algorithm> algs;
    std::vector<std::string> header{"algorithm"};
    for (const SweepRow &row : rows) {
        indexOf(systems, row.memSystem);
        indexOf(algs, row.alg);
        indexOf(header, row.point.label());
    }

    std::string out;
    for (MemSystem ms : systems) {
        std::vector<std::vector<std::string>> lines;
        for (placement::Algorithm alg : algs) {
            lines.push_back({placement::algorithmName(alg)});
            lines.back().resize(header.size());
        }
        const SweepRow *random = nullptr;  // last healthy RANDOM row
        for (const SweepRow &row : rows) {
            if (row.memSystem != ms)
                continue;
            auto &line = lines[indexOf(algs, row.alg)];
            line[indexOf(header, row.point.label())] =
                row.cancelled ? "CANCELLED"
                : row.failed  ? "FAILED"
                              : util::fmtFixed(row.normalizedToRandom, 3);
            if (row.alg == placement::Algorithm::Random && !row.failed &&
                !row.cancelled)
                random = &row;
        }
        util::TextTable table(systems.size() > 1
                                  ? title + " on " + memSystemName(ms)
                                  : title);
        table.setHeader(header);
        for (auto &line : lines)
            table.addRow(std::move(line));
        if (!out.empty())
            out += "\n";
        out += table.render();

        // Every algorithm sees the same hierarchy; RANDOM speaks for it.
        const uint64_t lookups =
            random ? random->l2Hits + random->l2Misses : 0;
        if (lookups || (random && random->netQueueingCycles)) {
            out += util::concat(
                "  at ", random->point.label(), ": L2 hit rate ",
                lookups ? util::fmtPercent(
                              static_cast<double>(random->l2Hits) /
                              static_cast<double>(lookups))
                        : std::string("n/a"),
                " (", lookups, " lookups), interconnect queueing ",
                random->netQueueingCycles, " cycles\n");
        }
    }
    return out;
}

void
writeExecTimeCsv(const std::string &path,
                 const std::vector<ExecTimePoint> &points)
{
    CsvWriter csv(path);
    csv.header({"algorithm", "processors", "contexts", "cycles",
                "normalized_to_random", "load_imbalance", "wall_ms",
                "status"});
    for (const auto &pt : points) {
        csv.row({placement::algorithmName(pt.alg),
                 std::to_string(pt.point.processors),
                 std::to_string(pt.point.contexts),
                 std::to_string(pt.cycles),
                 num(pt.normalizedToRandom), num(pt.loadImbalance),
                 util::fmtFixed(pt.wallMs, 3),
                 statusCell(pt)});
    }
}

void
writeHierarchyCsv(const std::string &path,
                  const std::vector<HierarchyPoint> &points)
{
    CsvWriter csv(path);
    csv.header({"mem_system", "algorithm", "processors", "contexts",
                "cycles", "normalized_to_random", "l2_hits",
                "l2_misses", "net_queueing_cycles", "wall_ms",
                "status"});
    for (const auto &pt : points) {
        csv.row({memSystemName(pt.memSystem),
                 placement::algorithmName(pt.alg),
                 std::to_string(pt.point.processors),
                 std::to_string(pt.point.contexts),
                 std::to_string(pt.cycles),
                 num(pt.normalizedToRandom),
                 std::to_string(pt.l2Hits),
                 std::to_string(pt.l2Misses),
                 std::to_string(pt.netQueueingCycles),
                 util::fmtFixed(pt.wallMs, 3),
                 statusCell(pt)});
    }
}

void
writeMissComponentsCsv(const std::string &path,
                       const std::vector<ExecTimePoint> &rows)
{
    CsvWriter csv(path);
    csv.header({"algorithm", "processors", "contexts", "compulsory",
                "intra_conflict", "inter_conflict", "invalidation",
                "refs", "wall_ms", "status"});
    for (const auto &row : rows) {
        csv.row({placement::algorithmName(row.alg),
                 std::to_string(row.point.processors),
                 std::to_string(row.point.contexts),
                 std::to_string(row.compulsory),
                 std::to_string(row.intraConflict),
                 std::to_string(row.interConflict),
                 std::to_string(row.invalidation),
                 std::to_string(row.refs),
                 util::fmtFixed(row.wallMs, 3),
                 statusCell(row)});
    }
}

void
writeTable4Csv(const std::string &path,
               const std::vector<Table4Row> &rows)
{
    CsvWriter csv(path);
    csv.header({"application", "static_pair_mean", "static_total",
                "static_pct_refs", "dynamic_total", "dynamic_pct_refs",
                "static_over_dynamic", "dynamic_pair_dev_pct",
                "dynamic_pair_abs_dev"});
    for (const auto &row : rows) {
        csv.row({row.app, num(row.staticPairMean),
                 num(row.staticTotal), num(row.staticPctOfRefs),
                 num(row.dynamicTotal), num(row.dynamicPctOfRefs),
                 num(row.staticOverDynamic),
                 num(row.dynamicPairDevPct),
                 num(row.dynamicPairAbsDev)});
    }
}

void
writeTable5Csv(const std::string &path,
               const std::vector<Table5Cell> &cells)
{
    CsvWriter csv(path);
    csv.header({"application", "processors", "best_static_algorithm",
                "best_static_vs_loadbal", "coherence_vs_loadbal",
                "status"});
    for (const auto &cell : cells) {
        csv.row({cell.app, std::to_string(cell.processors),
                 placement::algorithmName(cell.bestStatic),
                 num(cell.bestStaticVsLoadBal),
                 num(cell.coherenceVsLoadBal),
                 statusCell(cell)});
    }
}

void
writeTable2Csv(const std::string &path,
               const std::vector<analysis::CharacteristicsRow> &rows)
{
    CsvWriter csv(path);
    csv.header({"application", "pairwise_mean", "pairwise_dev_pct",
                "nway_mean", "nway_dev_pct", "refs_per_shared_addr",
                "refs_per_shared_addr_dev_pct", "shared_refs_pct",
                "length_mean", "length_dev_pct"});
    for (const auto &row : rows) {
        csv.row({row.app, num(row.pairwiseMean), num(row.pairwiseDevPct),
                 num(row.nwayMean), num(row.nwayDevPct),
                 num(row.refsPerSharedAddrMean),
                 num(row.refsPerSharedAddrDevPct),
                 num(row.sharedRefsPct), num(row.lengthMean),
                 num(row.lengthDevPct)});
    }
}

} // namespace tsp::experiment
