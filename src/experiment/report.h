/**
 * @file
 * Result emission: CSV writing for every study's data so downstream
 * plotting/diffing doesn't have to scrape the ASCII tables. Bench
 * binaries write CSVs when the TSP_OUT environment variable names a
 * directory.
 */

#ifndef TSP_EXPERIMENT_REPORT_H
#define TSP_EXPERIMENT_REPORT_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/characteristics.h"
#include "experiment/studies.h"

namespace tsp::experiment {

/**
 * Minimal CSV writer: RFC-4180-style quoting, one header row.
 */
class CsvWriter
{
  public:
    /** Open @p path for writing; throws FatalError on failure. */
    explicit CsvWriter(const std::string &path);

    /** Set the header row (must precede the first data row). */
    void header(const std::vector<std::string> &cells);

    /** Append one data row (width-checked against the header). */
    void row(const std::vector<std::string> &cells);

    /** Flush and close; called by the destructor as well. */
    void close();

    ~CsvWriter();

    CsvWriter(const CsvWriter &) = delete;
    CsvWriter &operator=(const CsvWriter &) = delete;

  private:
    void writeRow(const std::vector<std::string> &cells);

    struct Impl;
    std::unique_ptr<Impl> impl_;  // owned: no leak if the ctor throws
};

/** Quote one CSV cell per RFC 4180 (only when necessary). */
std::string csvQuote(const std::string &cell);

/**
 * Directory named by the TSP_OUT environment variable, or nullopt
 * when unset. Bench binaries use this to decide whether to emit CSVs.
 */
std::optional<std::string> outputDirectory();

/**
 * Render the failure summary of a degraded sweep as a text block
 * ("sweep failures: N\n  - <job>: <error>..."), or an empty string
 * when nothing failed. Printed by benches/CLIs after their tables.
 */
std::string renderFailureSummary(
    const std::vector<JobFailure> &failures);

/** Write a degraded sweep's failure list as CSV. */
void writeFailuresCsv(const std::string &path,
                      const std::vector<JobFailure> &failures);

/**
 * Render placement-sweep rows as the text tables of Figures 2-4: one
 * line per algorithm and one column per machine point, both in row
 * order, each cell the execution time normalized to RANDOM (or
 * FAILED, or CANCELLED). Rows spanning several memory systems render
 * one table per system, titled "<title> on <system>" and separated by
 * a blank line.
 * Under a system's table, its last healthy RANDOM row reports the L2
 * hit rate and interconnect queueing when either is non-zero.
 */
std::string renderSweepTables(const std::string &title,
                              const std::vector<SweepRow> &rows);

/** Write an execution-time study (Figures 2-4 layout) as CSV. */
void writeExecTimeCsv(const std::string &path,
                      const std::vector<ExecTimePoint> &points);

/** Write a memory-hierarchy study (hierarchy report layout) as CSV. */
void writeHierarchyCsv(const std::string &path,
                       const std::vector<HierarchyPoint> &points);

/** Write an execution-time study's miss components (Figure 5 layout). */
void writeMissComponentsCsv(const std::string &path,
                            const std::vector<ExecTimePoint> &rows);

/** Write Table 4 rows as CSV. */
void writeTable4Csv(const std::string &path,
                    const std::vector<Table4Row> &rows);

/** Write Table 5 cells as CSV. */
void writeTable5Csv(const std::string &path,
                    const std::vector<Table5Cell> &cells);

/** Write Table 2 characteristic rows as CSV. */
void writeTable2Csv(
    const std::string &path,
    const std::vector<analysis::CharacteristicsRow> &rows);

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_REPORT_H
