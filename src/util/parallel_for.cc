#include "util/parallel_for.h"

#include <cstdlib>

namespace tsp::util {

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("TSP_JOBS")) {
        char *end = nullptr;
        unsigned long parsed = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0 &&
            parsed <= kMaxThreads) {
            return static_cast<unsigned>(parsed);
        }
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace tsp::util
