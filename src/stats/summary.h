/**
 * @file
 * Running summary statistics with the exact deviation definitions the
 * paper uses in Tables 2 and 4:
 *
 *  - "Dev(%)" is the coefficient of variation, stddev / mean * 100;
 *  - "absolute deviation" is the standard deviation itself ("takes into
 *    account the size of the mean", Section 6).
 */

#ifndef TSP_STATS_SUMMARY_H
#define TSP_STATS_SUMMARY_H

#include <cstdint>
#include <limits>
#include <vector>

namespace tsp::stats {

/**
 * Single-pass (Welford) accumulator for count, mean, variance, min, max.
 */
class Summary
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Add every element of @p xs. */
    void addAll(const std::vector<double> &xs);

    /** Number of observations. */
    uint64_t count() const { return count_; }

    /** Sum of observations. */
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (0 when fewer than 2 observations). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /**
     * Coefficient of variation in percent (the paper's "Dev(%)").
     * Returns 0 when the mean is 0.
     */
    double devPercent() const;

    /** The paper's "absolute deviation": the standard deviation. */
    double absoluteDeviation() const { return stddev(); }

    /** Minimum observation (+inf when empty). */
    double min() const { return min_; }

    /** Maximum observation (-inf when empty). */
    double max() const { return max_; }

    /** Merge another summary into this one. */
    void merge(const Summary &other);

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Convenience: summarize a whole vector. */
Summary summarize(const std::vector<double> &xs);

} // namespace tsp::stats

#endif // TSP_STATS_SUMMARY_H
