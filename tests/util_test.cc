/**
 * @file
 * Unit tests for the util module: rng, bits, format, table, logging,
 * error handling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bits.h"
#include "util/error.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"

namespace tsp::util {
namespace {

// ---------------------------------------------------------------- errors

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input"), FatalError);
}

TEST(Error, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Error, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "no"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Error, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "no"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Error, MessagesArePrefixed)
{
    try {
        fatal("xyz");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: xyz");
    }
    try {
        panic("abc");
        FAIL();
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: abc");
    }
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowZeroPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.nextBelow(0), PanicError);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= (v == -3);
        sawHi |= (v == 3);
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, Uniform01InRangeAndCentered)
{
    Rng rng(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = rng.uniform01();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal(10.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, LognormalMeanDevMatchesTargets)
{
    Rng rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = rng.lognormalMeanDev(100.0, 50.0);
        ASSERT_GT(x, 0.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 100.0, 2.0);
    EXPECT_NEAR(std::sqrt(var), 50.0, 3.0);
}

TEST(Rng, LognormalZeroDevIsDegenerate)
{
    Rng rng(19);
    EXPECT_DOUBLE_EQ(rng.lognormalMeanDev(42.0, 0.0), 42.0);
}

TEST(Rng, ZipfStaysInRangeAndSkews)
{
    Rng rng(23);
    uint64_t first = 0, total = 20000;
    for (uint64_t i = 0; i < total; ++i) {
        uint64_t v = rng.zipf(100, 1.0);
        ASSERT_LT(v, 100u);
        first += (v == 0);
    }
    // Rank 0 should dominate any uniform share (1%) by far.
    EXPECT_GT(first, total / 20);
}

TEST(Rng, ZipfZeroExponentIsUniformish)
{
    Rng rng(29);
    uint64_t low = 0, total = 20000;
    for (uint64_t i = 0; i < total; ++i)
        low += (rng.zipf(10, 0.0) < 5);
    EXPECT_NEAR(static_cast<double>(low) / total, 0.5, 0.05);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(31);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    rng.shuffle(v);
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, ForkStreamsAreIndependent)
{
    Rng a(37);
    Rng child = a.fork();
    // The child should not replay the parent's stream.
    Rng b(37);
    b.next();  // advance like the fork did
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (child.next() == b.next());
    EXPECT_LT(same, 4);
}

// ------------------------------------------------------------------ bits

TEST(Bits, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(Bits, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor(1025), 10u);
}

TEST(Bits, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(Bits, AlignDownUp)
{
    EXPECT_EQ(alignDown(100, 32), 96u);
    EXPECT_EQ(alignUp(100, 32), 128u);
    EXPECT_EQ(alignDown(96, 32), 96u);
    EXPECT_EQ(alignUp(96, 32), 96u);
}

TEST(Bits, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(divCeil(1, 100), 1u);
}

// ---------------------------------------------------------------- format

TEST(Format, Fixed)
{
    EXPECT_EQ(fmtFixed(3.14159, 2), "3.14");
    EXPECT_EQ(fmtFixed(-1.0, 0), "-1");
}

TEST(Format, Percent)
{
    EXPECT_EQ(fmtPercent(0.1234), "12.34%");
    EXPECT_EQ(fmtPercent(1.0, 0), "100%");
}

TEST(Format, Thousands)
{
    EXPECT_EQ(fmtThousands(0), "0");
    EXPECT_EQ(fmtThousands(999), "999");
    EXPECT_EQ(fmtThousands(1000), "1,000");
    EXPECT_EQ(fmtThousands(1234567), "1,234,567");
    EXPECT_EQ(fmtThousands(-1234567), "-1,234,567");
}

TEST(Format, Compact)
{
    EXPECT_EQ(fmtCompact(950), "950");
    EXPECT_EQ(fmtCompact(12340), "12.3k");
    EXPECT_EQ(fmtCompact(4200000), "4.20M");
}

TEST(Format, Ratio)
{
    EXPECT_EQ(fmtRatio(42.0), "42.0x");
    EXPECT_EQ(fmtRatio(1.25, 2), "1.25x");
}

TEST(Format, Bytes)
{
    EXPECT_EQ(fmtBytes(512), "512 B");
    EXPECT_EQ(fmtBytes(32 * 1024), "32 KB");
    EXPECT_EQ(fmtBytes(8ull * 1024 * 1024), "8 MB");
    EXPECT_EQ(fmtBytes(1536), "1.5 KB");
}

// ----------------------------------------------------------------- table

TEST(Table, RendersHeaderAndRows)
{
    TextTable t("Title");
    t.setHeader({"App", "Value"});
    t.addRow({"FFT", "42"});
    t.addRow({"Gauss", "7"});
    std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("App"), std::string::npos);
    EXPECT_NE(out.find("FFT"), std::string::npos);
    EXPECT_NE(out.find("Gauss"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, NumericColumnsRightAligned)
{
    TextTable t;
    t.setHeader({"Name", "N"});
    t.addRow({"a", "1"});
    t.addRow({"b", "100"});
    std::string out = t.render();
    // The 1 should be padded on the left to the width of 100.
    EXPECT_NE(out.find("  1"), std::string::npos);
}

TEST(Table, RowWidthMismatchIsFatal)
{
    TextTable t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, SeparatorProducesRule)
{
    TextTable t;
    t.setHeader({"xcol"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    std::string out = t.render();
    // Two rules: one under the header, one before row 2.
    size_t first = out.find("---");
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(out.find("---", first + 3), std::string::npos);
}

TEST(Table, EmptyTableRendersTitleOnly)
{
    TextTable t("just a title");
    EXPECT_EQ(t.render(), "just a title\n");
}

// --------------------------------------------------------------- logging

TEST(Logging, LevelFilteringWorks)
{
    Logger &log = Logger::instance();
    LogLevel prev = log.level();
    log.setLevel(LogLevel::Silent);
    EXPECT_NO_THROW(inform("hidden"));
    EXPECT_NO_THROW(warn("hidden"));
    log.setLevel(prev);
}

TEST(Logging, ConcatBuildsMessage)
{
    EXPECT_EQ(concat("a", 1, "b", 2.5), "a1b2.5");
}

// ----------------------------------------------------------------- parse

TEST(Parse, AcceptsPlainDecimal)
{
    EXPECT_EQ(parseUnsigned("0", "--n"), 0u);
    EXPECT_EQ(parseUnsigned("42", "--n"), 42u);
    EXPECT_EQ(parseUnsigned("18446744073709551615", "--n"),
              UINT64_MAX);
    EXPECT_EQ(parseUnsigned32("4294967295", "--n"), UINT32_MAX);
}

TEST(Parse, RejectsGarbageNamingTheFlag)
{
    for (const char *bad : {"", "8x", "x8", "1.5", " 8", "8 ", "+8",
                            "0x10"}) {
        try {
            parseUnsigned(bad, "--contexts");
            FAIL() << "accepted '" << bad << "'";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--contexts"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Parse, RejectsNegativeWithAHint)
{
    try {
        parseUnsigned("-3", "--jobs");
        FAIL() << "accepted a negative value";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
        EXPECT_NE(what.find("negative"), std::string::npos) << what;
    }
}

TEST(Parse, RejectsOverflow)
{
    EXPECT_THROW(parseUnsigned("18446744073709551616", "--n"),
                 FatalError);
    EXPECT_THROW(parseUnsigned32("4294967296", "--n"), FatalError);
}

TEST(Parse, EnforcesRange)
{
    EXPECT_EQ(parseUnsigned("5", "--n", 1, 10), 5u);
    EXPECT_THROW(parseUnsigned("0", "--n", 1, 10), FatalError);
    EXPECT_THROW(parseUnsigned("11", "--n", 1, 10), FatalError);
}

TEST(ParseList, SplitsOnCommas)
{
    EXPECT_EQ(parseList("20000,50000", "--window"),
              (std::vector<uint64_t>{20000, 50000}));
    EXPECT_EQ(parseList("7", "--window"), (std::vector<uint64_t>{7}));
}

/** parseList(text, ...) must fail with a message naming @p flag. */
void
expectListRejected(const std::string &text, const std::string &flag,
                   uint64_t max = UINT64_MAX)
{
    try {
        parseList(text, flag, 1, max);
        FAIL() << "accepted '" << text << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << e.what();
    }
}

TEST(ParseList, RejectsAnEmptyItem)
{
    expectListRejected("4,,8", "--clusters");
    expectListRejected("", "--clusters");
}

TEST(ParseList, RejectsATrailingComma)
{
    expectListRejected("4,8,", "--clusters");
}

TEST(ParseList, RejectsAValueAboveMax)
{
    // Past max is an error, not a narrowing: 2^32 + 2 would read as 2.
    expectListRejected("4,4294967298", "--clusters", UINT32_MAX);
    expectListRejected("4294967296", "--clusters", UINT32_MAX);
    EXPECT_EQ(parseList("4294967295", "--clusters", 1, UINT32_MAX),
              (std::vector<uint64_t>{UINT32_MAX}));
}

} // namespace
} // namespace tsp::util
