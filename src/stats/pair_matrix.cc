#include "stats/pair_matrix.h"

#include <algorithm>

#include "util/error.h"

namespace tsp::stats {

PairMatrix::PairMatrix(size_t n) : n_(n), cells_(n * (n ? n - 1 : 0) / 2) {}

size_t
PairMatrix::index(size_t i, size_t j) const
{
    util::panicIf(i == j, "PairMatrix has no diagonal entries");
    util::panicIf(i >= n_ || j >= n_, "PairMatrix index out of range");
    if (i > j)
        std::swap(i, j);
    // Offset of row i within the packed upper triangle.
    size_t rowStart = i * n_ - i * (i + 1) / 2;
    return rowStart + (j - i - 1);
}

double
PairMatrix::get(size_t i, size_t j) const
{
    if (i == j)
        return 0.0;
    return cells_[index(i, j)];
}

void
PairMatrix::set(size_t i, size_t j, double v)
{
    cells_[index(i, j)] = v;
}

void
PairMatrix::add(size_t i, size_t j, double v)
{
    cells_[index(i, j)] += v;
}

double
PairMatrix::total() const
{
    double sum = 0.0;
    for (double c : cells_)
        sum += c;
    return sum;
}

double
PairMatrix::crossSum(const std::vector<uint32_t> &groupA,
                     const std::vector<uint32_t> &groupB) const
{
    double sum = 0.0;
    for (uint32_t a : groupA)
        for (uint32_t b : groupB)
            sum += get(a, b);
    return sum;
}

double
PairMatrix::withinSum(const std::vector<uint32_t> &group) const
{
    double sum = 0.0;
    for (size_t x = 0; x < group.size(); ++x)
        for (size_t y = x + 1; y < group.size(); ++y)
            sum += get(group[x], group[y]);
    return sum;
}

Summary
PairMatrix::pairSummary() const
{
    Summary s;
    for (double c : cells_)
        s.add(c);
    return s;
}

} // namespace tsp::stats
