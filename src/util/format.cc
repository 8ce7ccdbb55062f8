#include "util/format.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace tsp::util {

std::string
fmtFixed(double x, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, x);
    return buf;
}

std::string
fmtPercent(double fraction, int prec)
{
    return fmtFixed(fraction * 100.0, prec) + "%";
}

std::string
fmtThousands(int64_t x)
{
    std::string digits = std::to_string(x < 0 ? -x : x);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    if (x < 0)
        out.push_back('-');
    return {out.rbegin(), out.rend()};
}

std::string
fmtCompact(double x)
{
    static const std::array<const char *, 4> suffix = {"", "k", "M", "G"};
    double mag = std::fabs(x);
    size_t idx = 0;
    while (mag >= 1000.0 && idx + 1 < suffix.size()) {
        mag /= 1000.0;
        x /= 1000.0;
        ++idx;
    }
    int prec = mag >= 100.0 ? 0 : (mag >= 10.0 ? 1 : 2);
    if (idx == 0 && std::fabs(x - std::round(x)) < 1e-9)
        return std::to_string(static_cast<int64_t>(std::llround(x)));
    return fmtFixed(x, prec) + suffix[idx];
}

std::string
fmtRatio(double x, int prec)
{
    return fmtFixed(x, prec) + "x";
}

std::string
fmtBytes(uint64_t bytes)
{
    static const std::array<const char *, 4> unit = {"B", "KB", "MB", "GB"};
    double v = static_cast<double>(bytes);
    size_t idx = 0;
    while (v >= 1024.0 && idx + 1 < unit.size()) {
        v /= 1024.0;
        ++idx;
    }
    if (std::fabs(v - std::round(v)) < 1e-9) {
        return std::to_string(static_cast<int64_t>(std::llround(v))) + " " +
               unit[idx];
    }
    return fmtFixed(v, 1) + " " + unit[idx];
}

std::string
hexBits(double x)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

} // namespace tsp::util
