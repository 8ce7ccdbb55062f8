/**
 * @file
 * Strict numeric parsing for CLI flags. The strtoul-based parsing the
 * tools used previously silently coerced garbage ("8x" -> 8, "-1" ->
 * huge, overflow -> clamp); these helpers reject non-numeric,
 * negative and overflowing input with a FatalError naming the flag.
 */

#ifndef TSP_UTIL_PARSE_H
#define TSP_UTIL_PARSE_H

#include <cstdint>
#include <string>
#include <vector>

namespace tsp::util {

/**
 * Parse @p text as an unsigned decimal integer in [@p min, @p max].
 * The whole string must be digits (no sign, no suffix, no blanks).
 * Throws FatalError naming @p what (e.g. "--jobs") on any violation.
 */
uint64_t parseUnsigned(const std::string &text, const std::string &what,
                       uint64_t min = 0,
                       uint64_t max = UINT64_MAX);

/** parseUnsigned narrowed to uint32_t. */
uint32_t parseUnsigned32(const std::string &text,
                         const std::string &what, uint32_t min = 0,
                         uint32_t max = UINT32_MAX);

/**
 * Parse a comma-separated list such as "20000,50000", each item by
 * parseUnsigned(item, what, min, max). An empty item ("4,,8", a
 * trailing comma, an empty list) is an error naming @p what.
 */
std::vector<uint64_t> parseList(const std::string &text,
                                const std::string &what,
                                uint64_t min = 0,
                                uint64_t max = UINT64_MAX);

} // namespace tsp::util

#endif // TSP_UTIL_PARSE_H
