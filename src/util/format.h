/**
 * @file
 * Numeric formatting helpers for paper-style table output and
 * result digests.
 */

#ifndef TSP_UTIL_FORMAT_H
#define TSP_UTIL_FORMAT_H

#include <cstdint>
#include <string>

namespace tsp::util {

/** Fixed-point decimal with @p prec digits after the point. */
std::string fmtFixed(double x, int prec = 2);

/** Percentage with @p prec digits, e.g. fmtPercent(0.1234) == "12.34%". */
std::string fmtPercent(double fraction, int prec = 2);

/** Integer with thousands separators, e.g. 1234567 -> "1,234,567". */
std::string fmtThousands(int64_t x);

/**
 * Compact magnitude formatting: 950 -> "950", 12'340 -> "12.3k",
 * 4'200'000 -> "4.20M". Used for trace-length style columns.
 */
std::string fmtCompact(double x);

/** Ratio formatted as a multiplier, e.g. 42.0 -> "42.0x". */
std::string fmtRatio(double x, int prec = 1);

/** Byte count with binary units, e.g. 32768 -> "32 KB". */
std::string fmtBytes(uint64_t bytes);

/**
 * A double's exact bit pattern as 16 hex digits, e.g. 1.0 ->
 * "3ff0000000000000": digests built from it catch any drift.
 */
std::string hexBits(double x);

} // namespace tsp::util

#endif // TSP_UTIL_FORMAT_H
