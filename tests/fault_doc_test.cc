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

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

/** Split a markdown table line into trimmed cells. */
std::vector<std::string>
splitRow(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cell;
    // Skip the leading '|', split on the rest.
    for (size_t i = 1; i < line.size(); ++i) {
        if (line[i] == '|') {
            cells.push_back(cell);
            cell.clear();
        } else {
            cell.push_back(line[i]);
        }
    }
    for (std::string &c : cells) {
        size_t b = c.find_first_not_of(" \t");
        size_t e = c.find_last_not_of(" \t");
        c = (b == std::string::npos) ? "" : c.substr(b, e - b + 1);
    }
    return cells;
}

/** Strip surrounding backticks. */
std::string
stripCode(const std::string &s)
{
    if (s.size() >= 2 && s.front() == '`' && s.back() == '`')
        return s.substr(1, s.size() - 2);
    return s;
}

/** Parse every `| \`site.name\` | \`owner\` | help |` row. */
std::map<std::string, DocRow>
parseDocTable(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::map<std::string, DocRow> rows;
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        auto cells = splitRow(line);
        if (cells.size() < 3)
            continue;
        std::string owner = stripCode(cells[1]);
        // Only fault-site rows (their owner column is a code-formatted
        // C++ scope); other tables in the doc don't match.
        if (owner.find("::") == std::string::npos)
            continue;
        std::string name = stripCode(cells[0]);
        EXPECT_EQ(rows.count(name), 0u)
            << "duplicate doc row for " << name;
        rows[name] = {owner, cells[2]};
    }
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
