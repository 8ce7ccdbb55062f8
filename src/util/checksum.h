/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to
 * integrity-check on-disk artifacts: TSPT trace payloads and TSPS
 * result store records. A checksum is not a signature — it
 * detects corruption (torn writes, bit rot, truncation), not
 * tampering, which is all the robustness layer needs.
 *
 * Also the one 64-bit FNV-1a hash, which names byte strings rather
 * than guarding them: TSPS record key digests, the service's request
 * digest and the retry jitter seeds. Its output is persisted and sent
 * on the wire, so it must never change.
 */

#ifndef TSP_UTIL_CHECKSUM_H
#define TSP_UTIL_CHECKSUM_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tsp::util {

/** CRC-32 of @p len bytes at @p data, chained from @p seed. */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/** CRC-32 of a byte string. */
inline uint32_t
crc32(std::string_view bytes, uint32_t seed = 0)
{
    return crc32(bytes.data(), bytes.size(), seed);
}

/** 64-bit FNV-1a of a byte string. */
inline uint64_t
fnv1a(std::string_view bytes)
{
    uint64_t hash = 1469598103934665603ull;
    for (unsigned char c : bytes)
        hash = (hash ^ c) * 1099511628211ull;
    return hash;
}

} // namespace tsp::util

#endif // TSP_UTIL_CHECKSUM_H
