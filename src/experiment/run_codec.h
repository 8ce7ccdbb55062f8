/**
 * @file
 * Binary (de)serialization of RunResult for the TSPS result store
 * (experiment::Checkpoint), the one durable artifact that persists
 * completed cells, and for the wire protocol's responses. One codec
 * means one definition of "bit-identical on replay" — a result
 * written and read back reproduces the original byte for byte.
 *
 * The writers emit fixed-width little-endian scalars with no framing;
 * framing (length + CRC-32) and file headers belong to the owning
 * format. ByteReader bounds-checks every read against the payload, so
 * a corrupt record fails fast (FatalError) instead of reading past
 * the buffer or allocating from attacker-shaped lengths.
 */

#ifndef TSP_EXPERIMENT_RUN_CODEC_H
#define TSP_EXPERIMENT_RUN_CODEC_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "experiment/lab.h"

namespace tsp::experiment::codec {

/** Append-only byte buffer with typed writers. */
class ByteWriter
{
  public:
    void
    raw(const void *data, size_t len)
    {
        bytes_.append(static_cast<const char *>(data), len);
    }

    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    const std::string &bytes() const { return bytes_; }

  private:
    std::string bytes_;
};

/** Bounds-checked reader over a record payload. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    void
    raw(void *out, size_t len)
    {
        util::fatalIf(len > bytes_.size() - pos_,
                      "serialized record truncated");
        std::memcpy(out, bytes_.data() + pos_, len);
        pos_ += len;
    }

    uint8_t
    u8()
    {
        uint8_t v;
        raw(&v, sizeof(v));
        return v;
    }

    uint32_t
    u32()
    {
        uint32_t v;
        raw(&v, sizeof(v));
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v;
        raw(&v, sizeof(v));
        return v;
    }

    double
    f64()
    {
        double v;
        raw(&v, sizeof(v));
        return v;
    }

    bool done() const { return pos_ == bytes_.size(); }

  private:
    std::string_view bytes_;
    size_t pos_ = 0;
};

/**
 * Serialize @p result: its placement, execution time and load
 * imbalance, every per-processor counter and the machine-wide
 * counters, so a record takes 100 + 4T + 128P bytes for T threads on
 * P processors. A SimConfig::profileSharing run's write-run profile
 * is not carried (no journaled or served cell profiles sharing);
 * passing one panics rather than dropping it silently.
 */
void writeRunResult(ByteWriter &w, const RunResult &result);

/**
 * Inverse of writeRunResult. Sizes are sanity-capped before any
 * allocation; a malformed payload throws FatalError.
 */
RunResult readRunResult(ByteReader &r);

} // namespace tsp::experiment::codec

#endif // TSP_EXPERIMENT_RUN_CODEC_H
