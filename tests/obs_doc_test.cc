/**
 * @file
 * Doc-sync guard: the metrics reference table in
 * docs/observability.md must list exactly the metrics the library
 * registers (obs::allMetrics()), with matching kinds. Adding a metric
 * without its doc row — or leaving a stale row behind — fails here.
 *
 * The table rows look like:
 *   | `pool.tasks_executed` | counter | `util::parallelFor` | ... |
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "doc_table.h"
#include "obs/metric_defs.h"

#ifndef TSP_SOURCE_DIR
#error "obs_doc_test needs TSP_SOURCE_DIR (set in tests/CMakeLists.txt)"
#endif

using namespace tsp;

namespace {

struct DocRow
{
    std::string kind;
    std::string owner;
};

/** Parse every `| \`metric.name\` | kind | owner | ... |` row. */
std::map<std::string, DocRow>
parseDocTable(const std::string &path)
{
    // Only metric rows (dotted lowercase names with a known kind);
    // other tables in the doc (env vars, event fields) don't match.
    auto isMetricRow = [](const std::vector<std::string> &cells) {
        return cells.size() >= 4 &&
               (cells[1] == "counter" || cells[1] == "gauge" ||
                cells[1] == "histogram");
    };
    std::map<std::string, DocRow> rows;
    for (const auto &[name, cells] :
         doc_table::parseDocTable(path, isMetricRow))
        rows[name] = {cells[1], doc_table::stripCode(cells[2])};
    return rows;
}

TEST(ObsDocSync, DocTableMatchesRegisteredCatalogExactly)
{
    const std::string docPath =
        std::string(TSP_SOURCE_DIR) + "/docs/observability.md";
    auto doc = parseDocTable(docPath);
    ASSERT_FALSE(doc.empty()) << "no metric rows parsed from "
                              << docPath;

    auto registered = obs::allMetrics();
    std::map<std::string, DocRow> catalog;
    for (const auto &info : registered) {
        // Test binaries may register ad-hoc test.* metrics; only the
        // library catalog is documented.
        if (info.name.rfind("test.", 0) == 0)
            continue;
        catalog[info.name] = {info.kind, info.owner};
    }

    for (const auto &[name, row] : catalog) {
        auto it = doc.find(name);
        ASSERT_NE(it, doc.end())
            << "metric '" << name
            << "' is registered but missing from the "
               "docs/observability.md reference table";
        EXPECT_EQ(it->second.kind, row.kind)
            << "kind mismatch for '" << name << "'";
        EXPECT_EQ(it->second.owner, row.owner)
            << "owner mismatch for '" << name << "'";
    }
    for (const auto &[name, row] : doc) {
        EXPECT_EQ(catalog.count(name), 1u)
            << "docs/observability.md documents '" << name
            << "' but the library does not register it (stale row?)";
    }
    EXPECT_EQ(doc.size(), catalog.size());
}

} // namespace
