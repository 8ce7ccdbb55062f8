/**
 * @file
 * Unit tests for the stats module: Summary (the paper's Dev% and
 * absolute-deviation definitions) and PairMatrix.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/pair_matrix.h"
#include "stats/summary.h"
#include "util/error.h"

namespace tsp::stats {
namespace {

// --------------------------------------------------------------- summary

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.devPercent(), 0.0);
}

TEST(Summary, SingleObservation)
{
    Summary s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Summary, KnownPopulationStats)
{
    Summary s;
    s.addAll({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // classic textbook example
    EXPECT_NEAR(s.devPercent(), 40.0, 1e-9);
    EXPECT_NEAR(s.absoluteDeviation(), 2.0, 1e-12);
}

TEST(Summary, SumMatchesMeanTimesCount)
{
    Summary s;
    s.addAll({1.5, 2.5, 3.0});
    EXPECT_NEAR(s.sum(), 7.0, 1e-12);
}

TEST(Summary, DevPercentZeroMeanIsZero)
{
    Summary s;
    s.addAll({-1.0, 1.0});
    EXPECT_DOUBLE_EQ(s.devPercent(), 0.0);
}

TEST(Summary, MergeEqualsConcatenation)
{
    Summary a, b, whole;
    std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 100};
    for (size_t i = 0; i < xs.size(); ++i) {
        (i < 3 ? a : b).add(xs[i]);
        whole.add(xs[i]);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.stddev(), whole.stddev(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Summary, MergeWithEmptySides)
{
    Summary a, empty;
    a.addAll({1.0, 2.0});
    Summary copy = a;
    a.merge(empty);
    EXPECT_NEAR(a.mean(), copy.mean(), 1e-12);
    empty.merge(a);
    EXPECT_NEAR(empty.mean(), copy.mean(), 1e-12);
}

TEST(Summary, PaperAbsoluteDeviationExample)
{
    // Section 6: "Vandermonde has a deviation of 386%, a mean of 0.01%
    // and the absolute deviation is only 0.04%": absolute deviation is
    // dev% * mean.
    Summary s;
    // Construct data with mean 0.01 and stddev ~0.0386.
    s.addAll({0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.08});
    EXPECT_NEAR(s.mean(), 0.01, 1e-12);
    EXPECT_NEAR(s.absoluteDeviation(),
                s.devPercent() / 100.0 * s.mean(), 1e-12);
}

// ----------------------------------------------------------- pair matrix

TEST(PairMatrix, GetSetAddSymmetric)
{
    PairMatrix m(4);
    m.set(0, 1, 5.0);
    m.add(1, 0, 2.0);
    EXPECT_DOUBLE_EQ(m.get(0, 1), 7.0);
    EXPECT_DOUBLE_EQ(m.get(1, 0), 7.0);
    EXPECT_DOUBLE_EQ(m.get(2, 3), 0.0);
}

TEST(PairMatrix, DiagonalIsZeroAndUnsettable)
{
    PairMatrix m(3);
    EXPECT_DOUBLE_EQ(m.get(1, 1), 0.0);
    EXPECT_THROW(m.set(1, 1, 1.0), util::PanicError);
}

TEST(PairMatrix, OutOfRangePanics)
{
    PairMatrix m(3);
    EXPECT_THROW(m.get(0, 3), util::PanicError);
}

TEST(PairMatrix, TotalAndRowSum)
{
    PairMatrix m(3);
    m.set(0, 1, 1.0);
    m.set(0, 2, 2.0);
    m.set(1, 2, 4.0);
    EXPECT_DOUBLE_EQ(m.total(), 7.0);
    EXPECT_DOUBLE_EQ(m.rowSum(0), 3.0);
    EXPECT_DOUBLE_EQ(m.rowSum(1), 5.0);
    EXPECT_DOUBLE_EQ(m.rowSum(2), 6.0);
}

TEST(PairMatrix, CrossAndWithinSums)
{
    PairMatrix m(4);
    m.set(0, 1, 1.0);
    m.set(0, 2, 2.0);
    m.set(0, 3, 3.0);
    m.set(1, 2, 4.0);
    m.set(1, 3, 5.0);
    m.set(2, 3, 6.0);
    EXPECT_DOUBLE_EQ(m.crossSum({0, 1}, {2, 3}), 2.0 + 3.0 + 4.0 + 5.0);
    EXPECT_DOUBLE_EQ(m.withinSum({0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(m.withinSum({0, 2, 3}), 2.0 + 3.0 + 6.0);
    EXPECT_DOUBLE_EQ(m.withinSum({2}), 0.0);
}

TEST(PairMatrix, WithinPlusCrossEqualsTotal)
{
    PairMatrix m(5);
    double v = 1.0;
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = i + 1; j < 5; ++j)
            m.set(i, j, v++);
    std::vector<uint32_t> a{0, 2}, b{1, 3, 4};
    EXPECT_DOUBLE_EQ(m.withinSum(a) + m.withinSum(b) + m.crossSum(a, b),
                     m.total());
}

TEST(PairMatrix, PairSummaryCountsAllPairs)
{
    PairMatrix m(4);
    m.set(0, 1, 6.0);
    auto s = m.pairSummary();
    EXPECT_EQ(s.count(), 6u);  // C(4,2)
    EXPECT_DOUBLE_EQ(s.mean(), 1.0);
}

TEST(PairMatrix, MergeAddsElementwise)
{
    PairMatrix a(3), b(3);
    a.set(0, 1, 1.0);
    b.set(0, 1, 2.0);
    b.set(1, 2, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(a.get(1, 2), 3.0);
}

TEST(PairMatrix, MergeSizeMismatchIsFatal)
{
    PairMatrix a(3), b(4);
    EXPECT_THROW(a.merge(b), util::FatalError);
}

TEST(PairMatrix, SizeZeroAndOneAreEmptyButValid)
{
    PairMatrix z(0), one(1);
    EXPECT_DOUBLE_EQ(z.total(), 0.0);
    EXPECT_DOUBLE_EQ(one.total(), 0.0);
    EXPECT_EQ(one.pairSummary().count(), 0u);
}

} // namespace
} // namespace tsp::stats
