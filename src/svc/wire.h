/**
 * @file
 * The service's binary wire protocol: length-prefixed, CRC-framed
 * messages (the `experiment::codec` discipline applied to a socket)
 * carrying study requests, streamed progress, final responses and
 * reject-with-reason answers between `svc::Client` and `svc::Server`.
 *
 * Frame layout (little-endian, 16-byte header; the table in
 * docs/service.md mirrors this):
 *
 *     u32 magic "TSPW" | u8 version | u8 type | u16 reserved
 *     u32 payloadBytes | u32 crc32(payload) | payload
 *
 * Robustness rules, enforced before any allocation or dispatch:
 *  - a declared payload length above kMaxPayloadBytes poisons the
 *    stream immediately — a malicious length can never drive an
 *    allocation (mirrors the TSPT/TSPS bounds-checking);
 *  - the CRC must match before a payload is decoded, so bit rot or
 *    truncation fails loudly at the frame boundary;
 *  - payload decoding runs on `codec::ByteReader`, which bounds-checks
 *    every read, and every count/string length is sanity-capped.
 *
 * A malformed stream throws `util::FatalError`; the server answers
 * with a `Reject(Malformed)` frame and drops the connection, the
 * client treats it as a transport failure and reconnects.
 */

#ifndef TSP_SVC_WIRE_H
#define TSP_SVC_WIRE_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "svc/daemon.h"

namespace tsp::svc::wire {

/**
 * Protocol version; bumped on any frame or payload layout change (2:
 * Response outcomes carry the TSPS v3 RunResult codec).
 */
constexpr uint8_t kVersion = 2;

/** Frame header bytes (magic, version, type, reserved, len, crc). */
constexpr size_t kHeaderBytes = 16;

/** Hard cap on a frame's declared payload length. */
constexpr uint32_t kMaxPayloadBytes = 8u << 20;

/** Hard cap on any string carried in a payload. */
constexpr uint32_t kMaxStringBytes = 64u << 10;

/** Hard cap on jobs per request (and outcomes per response). */
constexpr uint32_t kMaxJobs = 4096;

/** Every message the protocol carries. */
enum class FrameType : uint8_t {
    Submit = 1,    //!< client -> server: a study request
    Progress = 2,  //!< server -> client: heartbeat / stage update
    Response = 3,  //!< server -> client: the final answer
    Reject = 4,    //!< server -> client: refused, with code + reason
};

/** Lowercase frame-type name, e.g. "progress". */
std::string frameTypeName(FrameType type);

/** Why a server refused to answer. */
enum class RejectCode : uint8_t {
    Shed = 1,       //!< admission control shed the request
    Capacity = 2,   //!< connection limit reached; try again later
    Malformed = 3,  //!< the received bytes were not a valid frame
    Draining = 4,   //!< the server is draining for shutdown
    Internal = 5,   //!< the server cannot answer this request, e.g.
                    //!< its response exceeds kMaxPayloadBytes
};

/** Lowercase reject-code name, e.g. "malformed". */
std::string rejectCodeName(RejectCode code);

/** One complete, CRC-verified frame. */
struct Frame
{
    FrameType type = FrameType::Reject;
    std::string payload;
};

/** A decoded Reject payload. */
struct Reject
{
    RejectCode code = RejectCode::Internal;
    std::string reason;
};

/** Frame @p payload as type @p type (header + CRC + payload). */
std::string encodeFrame(FrameType type, std::string_view payload);

/**
 * Incremental frame parser over a byte stream. Feed whatever the
 * socket produced; complete frames come out of next(). Malformed
 * input (bad magic/version/type, oversized declared length, CRC
 * mismatch) throws FatalError from feed() or next() — the stream is
 * poisoned and the connection must be dropped. Validation is eager:
 * an oversized declared length is rejected as soon as its header is
 * visible, before any payload is buffered.
 */
class Deframer
{
  public:
    /** Append @p len received bytes; throws on a malformed header. */
    void feed(const char *data, size_t len);

    /** The next complete frame, if one is buffered. */
    std::optional<Frame> next();

    /** Bytes buffered awaiting a complete frame. */
    size_t buffered() const { return buffer_.size(); }

    /** True while an unfinished frame sits in the buffer. */
    bool midFrame() const { return !buffer_.empty(); }

  private:
    /** Validate the buffered header prefix; throws when malformed. */
    void validate() const;

    std::string buffer_;
};

// --------------------------------------------------- payload codecs

/** Serialize a request's jobs, priority and deadline. */
std::string encodeSubmit(const StudyRequest &request);

/**
 * Inverse of encodeSubmit. Every count is capped and every enum
 * range-checked before use; malformed payloads throw FatalError.
 * Progress/completion callbacks are transport concerns and do not
 * travel (the result's hooks are empty).
 */
StudyRequest decodeSubmit(std::string_view payload);

std::string encodeProgress(const StudyProgress &progress);
StudyProgress decodeProgress(std::string_view payload);

std::string encodeResponse(const StudyResponse &response);
StudyResponse decodeResponse(std::string_view payload);

std::string encodeReject(RejectCode code, std::string_view reason);
Reject decodeReject(std::string_view payload);

/**
 * FNV-1a digest of a request's canonical submit payload — the same
 * configuration bytes the store's content addresses are derived from
 * server-side. Keys the client's retry jitter, so a reconnect-and-
 * reissue of the same request is an idempotent store dedup hit.
 */
uint64_t requestDigest(const StudyRequest &request);

} // namespace tsp::svc::wire

#endif // TSP_SVC_WIRE_H
