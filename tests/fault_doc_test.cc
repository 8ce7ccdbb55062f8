/**
 * @file
 * Doc-sync guard (mirror of obs_doc_test): the fault-site catalog
 * table in docs/robustness.md must list exactly the sites compiled
 * into fault::Registry::catalog(), with matching owners and help
 * strings. Adding a site without its doc row — or leaving a stale row
 * behind — fails here.
 *
 * The table rows look like:
 *   | `store.append` | `experiment::Checkpoint` | ... |
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "doc_table.h"
#include "fault/fault.h"

#ifndef TSP_SOURCE_DIR
#error "fault_doc_test needs TSP_SOURCE_DIR (set in tests/CMakeLists.txt)"
#endif

using namespace tsp;

namespace {

struct DocRow
{
    std::string owner;
    std::string help;
};

/** Parse every `| \`site.name\` | \`owner\` | help |` row. */
std::map<std::string, DocRow>
parseDocTable(const std::string &path)
{
    // Only fault-site rows (their owner column is a code-formatted
    // C++ scope); other tables in the doc don't match.
    auto isSiteRow = [](const std::vector<std::string> &cells) {
        return cells.size() >= 3 &&
               doc_table::stripCode(cells[1]).find("::") !=
                   std::string::npos;
    };
    std::map<std::string, DocRow> rows;
    for (const auto &[name, cells] :
         doc_table::parseDocTable(path, isSiteRow))
        rows[name] = {doc_table::stripCode(cells[1]), cells[2]};
    return rows;
}

TEST(FaultDocSync, DocTableMatchesCompiledCatalogExactly)
{
    const std::string docPath =
        std::string(TSP_SOURCE_DIR) + "/docs/robustness.md";
    auto doc = parseDocTable(docPath);
    ASSERT_FALSE(doc.empty())
        << "no fault-site rows parsed from " << docPath;

    std::map<std::string, DocRow> catalog;
    for (const fault::SiteInfo &site : fault::Registry::catalog())
        catalog[site.name] = {site.owner, site.help};

    for (const auto &[name, row] : catalog) {
        auto it = doc.find(name);
        ASSERT_NE(it, doc.end())
            << "fault site '" << name
            << "' is cataloged but missing from the "
               "docs/robustness.md site table";
        EXPECT_EQ(it->second.owner, row.owner)
            << "owner mismatch for '" << name << "'";
        EXPECT_EQ(it->second.help, row.help)
            << "help mismatch for '" << name << "'";
    }
    for (const auto &[name, row] : doc) {
        EXPECT_EQ(catalog.count(name), 1u)
            << "docs/robustness.md documents '" << name
            << "' but the library does not catalog it (stale row?)";
    }
    EXPECT_EQ(doc.size(), catalog.size());
}

} // namespace
