#include "util/rng.h"

#include <cmath>

#include "util/error.h"

namespace tsp::util {

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    panicIf(bound == 0, "Rng::nextBelow bound must be positive");
    // Lemire's nearly-divisionless rejection method.
    uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
        uint64_t threshold = -bound % bound;
        while (l < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<uint64_t>(m);
        }
    }
    return static_cast<uint64_t>(m >> 64);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    panicIf(lo > hi, "Rng::uniformInt requires lo <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(nextBelow(span));
}

double
Rng::uniform01()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniform01();
}

bool
Rng::bernoulli(double p)
{
    return uniform01() < p;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    u2 = uniform01();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalMeanDev(double mean, double stddev)
{
    panicIf(mean <= 0.0, "lognormalMeanDev requires positive mean");
    if (stddev <= 0.0)
        return mean;
    // Solve for the underlying normal parameters mu/sigma such that the
    // lognormal has the requested mean and standard deviation.
    double cv2 = (stddev / mean) * (stddev / mean);
    double sigma2 = std::log1p(cv2);
    double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(normal(mu, std::sqrt(sigma2)));
}

uint64_t
Rng::zipf(uint64_t n, double s)
{
    panicIf(n == 0, "Rng::zipf requires n > 0");
    if (s <= 0.0)
        return nextBelow(n);
    // Inverse-CDF by rejection over the continuous bounding distribution
    // (Devroye). Exact enough for workload-locality purposes and O(1).
    const double q = 1.0 - s;
    auto h = [&](double x) {
        return q == 0.0 ? std::log(x) : (std::pow(x, q) - 1.0) / q;
    };
    auto hInv = [&](double y) {
        return q == 0.0 ? std::exp(y) : std::pow(1.0 + q * y, 1.0 / q);
    };
    const double hx0 = h(0.5) - 1.0;
    const double hn = h(static_cast<double>(n) + 0.5);
    while (true) {
        double u = hx0 + uniform01() * (hn - hx0);
        double x = hInv(u);
        uint64_t k = static_cast<uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        if (k > n)
            k = n;
        double kd = static_cast<double>(k);
        if (u >= h(kd + 0.5) - std::pow(kd, -s))
            return k - 1;
    }
}

Rng
Rng::fork()
{
    uint64_t seed = next() ^ 0xD1B54A32D192ED03ull;
    return Rng(seed);
}

} // namespace tsp::util
