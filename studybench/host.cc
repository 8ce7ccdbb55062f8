#include "host.h"

#include <sys/vfs.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/config.h"

namespace studybench {

std::string
pinKnobs()
{
    tsp::sim::setDefaultParanoidEvery(0);
    for (const char *knob : {"TSP_METRICS", "TSP_METRICS_OUT",
                             "TSP_FAULT", "TSP_OUT"}) {
        if (std::getenv(knob))
            return knob;
    }
    return {};
}

std::string
filesystemType(const std::string &path)
{
    struct statfs fs{};
    if (statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0x01021994: return "tmpfs";
      case 0xEF53:     return "ext4";
      case 0x794c7630: return "overlay";
      default: {
        std::ostringstream os;
        os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
        return os.str();
      }
    }
}

double
hostSpeedProbeMs()
{
    constexpr uint32_t kWords = 1u << 21;  // 8 MiB of uint32_t
    constexpr uint32_t kSteps = 1u << 22;
    std::vector<uint32_t> table(kWords);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t &w : table) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = static_cast<uint32_t>(x);
    }
    auto start = std::chrono::steady_clock::now();
    uint32_t i = 0;
    uint64_t acc = 0;
    for (uint32_t s = 0; s < kSteps; ++s) {
        i = (table[i] ^ s) & (kWords - 1);
        acc = acc * 6364136223846793005ull + i;
    }
    auto end = std::chrono::steady_clock::now();
    // Keep the loop observable so it cannot be folded away.
    table[acc & (kWords - 1)] ^= 1;
    volatile uint32_t sink = table[i];
    (void)sink;
    return std::chrono::duration<double, std::milli>(end - start).count();
}

namespace {

/** First number after "@p key" in the text file @p path, or 0. */
uint64_t
fieldOf(const char *path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0)
            return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
    return 0;
}

} // namespace

double
peakRssMb()
{
    return static_cast<double>(fieldOf("/proc/self/status", "VmHWM:")) /
           1024.0;
}

uint64_t
threadBytesWritten()
{
    return fieldOf("/proc/thread-self/io", "wchar:");
}

} // namespace studybench
