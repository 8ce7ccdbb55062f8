/**
 * @file
 * The markdown table parser shared by the doc-sync tests
 * (obs_doc_test, fault_doc_test and memsys_doc_test): each keeps its
 * own row filter and assertions, and reads the doc through here.
 */

#ifndef TSP_TESTS_DOC_TABLE_H
#define TSP_TESTS_DOC_TABLE_H

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tsp::doc_table {

/** Split a markdown table line into trimmed cells. */
inline std::vector<std::string>
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

/** Whether @p s is backtick-wrapped code. */
inline bool
isCode(const std::string &s)
{
    return s.size() >= 2 && s.front() == '`' && s.back() == '`';
}

/** Strip surrounding backticks. */
inline std::string
stripCode(const std::string &s)
{
    if (isCode(s))
        return s.substr(1, s.size() - 2);
    return s;
}

/**
 * The cells of every table row in the doc at @p path that starts
 * with a code cell ("| `name` | ...") and that @p keep(cells)
 * accepts, keyed by that first cell without its backticks. A name on
 * two kept rows fails the calling test.
 */
template <typename Keep>
std::map<std::string, std::vector<std::string>>
parseDocTable(const std::string &path, Keep keep)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::map<std::string, std::vector<std::string>> rows;
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cells = splitRow(line);
        if (!keep(cells))
            continue;
        std::string name = stripCode(cells[0]);
        EXPECT_EQ(rows.count(name), 0u)
            << "duplicate doc row for " << name;
        rows[name] = std::move(cells);
    }
    return rows;
}

} // namespace tsp::doc_table

#endif // TSP_TESTS_DOC_TABLE_H
