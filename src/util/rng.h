/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the library (workload generators, the
 * RANDOM placement algorithm, partition sampling) draws from an explicit
 * Rng instance so that experiments are reproducible bit-for-bit from a
 * seed. The core generator is xoshiro256**, seeded via SplitMix64, which
 * is fast, high quality and trivially portable.
 */

#ifndef TSP_UTIL_RNG_H
#define TSP_UTIL_RNG_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsp::util {

/**
 * The SplitMix64 finalizer: a bijective mix that spreads sequential
 * keys uniformly over 64 bits (FlatMap hashing, BBV buckets).
 */
constexpr uint64_t
mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * SplitMix64 step: advance @p state and return the next value of the
 * stream. Expands a seed into generator state, and is the cheap
 * deterministic stream of the retry jitter and the load generator.
 */
constexpr uint64_t
splitmix64(uint64_t &state)
{
    return mix64(state += 0x9e3779b97f4a7c15ull);
}

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can also be used
 * with <random> and <algorithm> facilities.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (any value, including 0, is fine). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    uint64_t operator()() { return next(); }

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Uniform real in [0, 1). */
    double uniform01();

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with probability @p p of true. */
    bool bernoulli(double p);

    /** Standard normal deviate (Box–Muller, cached pair). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal deviate parameterized directly by the desired mean and
     * standard deviation of the *resulting* distribution (not of the
     * underlying normal). Useful for skewed thread-length distributions
     * whose coefficient of variation exceeds what a truncated normal can
     * express. Requires mean > 0.
     */
    double lognormalMeanDev(double mean, double stddev);

    /** Zipf-distributed integer in [0, n) with exponent @p s (s >= 0). */
    uint64_t zipf(uint64_t n, double s);

    /** Fisher–Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[nextBelow(i)]);
    }

    /** Pick a uniformly random element index of a non-empty container. */
    template <typename T>
    size_t
    pickIndex(const std::vector<T> &v)
    {
        return static_cast<size_t>(nextBelow(v.size()));
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng fork();

  private:
    uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace tsp::util

#endif // TSP_UTIL_RNG_H
