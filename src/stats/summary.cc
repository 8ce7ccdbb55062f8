#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace tsp::stats {

void
Summary::add(double x)
{
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Summary::addAll(const std::vector<double> &xs)
{
    for (double x : xs)
        add(x);
}

double
Summary::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
Summary::devPercent() const
{
    if (count_ == 0 || mean_ == 0.0)
        return 0.0;
    return stddev() / std::fabs(mean_) * 100.0;
}

void
Summary::merge(const Summary &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double na = static_cast<double>(count_);
    double nb = static_cast<double>(other.count_);
    double delta = other.mean_ - mean_;
    double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

Summary
summarize(const std::vector<double> &xs)
{
    Summary s;
    s.addAll(xs);
    return s;
}

} // namespace tsp::stats
