/**
 * @file
 * Doc-sync guard: the knob reference table in docs/memory_system.md
 * must list exactly the memory-system knobs the simulator exposes
 * (sim::memSystemKnobs()), with matching defaults and valid ranges.
 * The catalog is built from a default-constructed SimConfig, so this
 * test fails when a knob is added, a default changes, or a range
 * tightens without the doc row moving with it.
 *
 * The table rows look like:
 *   | `l2Bytes` | `0` | 0 (no L2) or a power of two ... | ... |
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "doc_table.h"
#include "sim/config.h"

#ifndef TSP_SOURCE_DIR
#error "memsys_doc_test needs TSP_SOURCE_DIR (set in tests/CMakeLists.txt)"
#endif

using namespace tsp;

namespace {

struct DocKnob
{
    std::string def;
    std::string range;
};

/**
 * Parse every `| \`knob\` | \`default\` | range | ... |` row. The
 * doc's other tables (the memory-system variants) have a backticked
 * first cell but a plain-text second cell, so requiring both first
 * cells to be code keeps them out.
 */
std::map<std::string, DocKnob>
parseDocTable(const std::string &path)
{
    auto isKnobRow = [](const std::vector<std::string> &cells) {
        return cells.size() >= 4 && doc_table::isCode(cells[0]) &&
               doc_table::isCode(cells[1]);
    };
    std::map<std::string, DocKnob> rows;
    for (const auto &[name, cells] :
         doc_table::parseDocTable(path, isKnobRow))
        rows[name] = {doc_table::stripCode(cells[1]), cells[2]};
    return rows;
}

TEST(MemSysDocSync, DocTableMatchesKnobCatalogExactly)
{
    const std::string docPath =
        std::string(TSP_SOURCE_DIR) + "/docs/memory_system.md";
    auto doc = parseDocTable(docPath);
    ASSERT_FALSE(doc.empty())
        << "no knob rows parsed from " << docPath;

    auto knobs = sim::memSystemKnobs();
    std::map<std::string, DocKnob> catalog;
    for (const auto &k : knobs)
        catalog[k.name] = {k.def, k.range};
    ASSERT_EQ(catalog.size(), knobs.size())
        << "duplicate knob name in sim::memSystemKnobs()";

    for (const auto &[name, knob] : catalog) {
        auto it = doc.find(name);
        ASSERT_NE(it, doc.end())
            << "knob '" << name
            << "' is in sim::memSystemKnobs() but missing from the "
               "docs/memory_system.md reference table";
        EXPECT_EQ(it->second.def, knob.def)
            << "default mismatch for '" << name
            << "' (the doc must match the default-constructed "
               "SimConfig)";
        EXPECT_EQ(it->second.range, knob.range)
            << "valid-range mismatch for '" << name << "'";
    }
    for (const auto &[name, knob] : doc) {
        EXPECT_EQ(catalog.count(name), 1u)
            << "docs/memory_system.md documents '" << name
            << "' but sim::memSystemKnobs() does not list it "
               "(stale row?)";
    }
    EXPECT_EQ(doc.size(), catalog.size());
}

} // namespace
