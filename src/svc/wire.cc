#include "svc/wire.h"

#include <cstring>

#include "experiment/run_codec.h"
#include "util/checksum.h"
#include "util/error.h"

namespace tsp::svc::wire {

namespace codec = experiment::codec;
using experiment::Outcome;
using experiment::RunJob;
using experiment::RunResult;

namespace {

constexpr char kMagic[4] = {'T', 'S', 'P', 'W'};

constexpr uint32_t kAppCount = 14;        // workload::AppId
constexpr uint32_t kAlgorithmCount = 16;  // placement::Algorithm
constexpr uint32_t kMemSystemCount = 4;   // experiment::MemSystem
constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::Reject);
constexpr uint8_t kMaxRejectCode =
    static_cast<uint8_t>(RejectCode::Internal);
constexpr uint8_t kMaxStage =
    static_cast<uint8_t>(StudyProgress::Stage::Done);
constexpr uint8_t kMaxStatus =
    static_cast<uint8_t>(StudyStatus::Failed);

void
putString(codec::ByteWriter &w, std::string_view s)
{
    util::fatalIf(s.size() > kMaxStringBytes,
                  "wire string exceeds the protocol cap");
    w.u32(static_cast<uint32_t>(s.size()));
    w.raw(s.data(), s.size());
}

std::string
getString(codec::ByteReader &r)
{
    uint32_t len = r.u32();
    util::fatalIf(len > kMaxStringBytes,
                  "wire string length exceeds the protocol cap");
    std::string s(len, '\0');
    r.raw(s.data(), len);
    return s;
}

} // namespace

std::string
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Submit:
        return "submit";
    case FrameType::Progress:
        return "progress";
    case FrameType::Response:
        return "response";
    case FrameType::Reject:
        return "reject";
    }
    return "unknown";
}

std::string
rejectCodeName(RejectCode code)
{
    switch (code) {
    case RejectCode::Shed:
        return "shed";
    case RejectCode::Capacity:
        return "capacity";
    case RejectCode::Malformed:
        return "malformed";
    case RejectCode::Draining:
        return "draining";
    case RejectCode::Internal:
        return "internal";
    }
    return "unknown";
}

std::string
encodeFrame(FrameType type, std::string_view payload)
{
    util::fatalIf(payload.size() > kMaxPayloadBytes,
                  "wire frame payload exceeds the protocol cap");
    codec::ByteWriter w;
    w.raw(kMagic, sizeof(kMagic));
    w.u8(kVersion);
    w.u8(static_cast<uint8_t>(type));
    w.u8(0);
    w.u8(0);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u32(util::crc32(payload));
    std::string frame = w.bytes();
    frame.append(payload.data(), payload.size());
    return frame;
}

void
Deframer::validate() const
{
    // Eager checks over whatever header prefix is visible, so garbage
    // and oversized lengths poison the stream before any payload
    // byte is waited for (or buffered).
    size_t have = buffer_.size();
    size_t magicBytes = std::min(have, sizeof(kMagic));
    util::fatalIf(
        std::memcmp(buffer_.data(), kMagic, magicBytes) != 0,
        "wire stream is not TSPW-framed (bad magic)");
    if (have > sizeof(kMagic)) {
        util::fatalIf(
            static_cast<uint8_t>(buffer_[4]) != kVersion,
            "unsupported wire protocol version");
    }
    if (have > sizeof(kMagic) + 1) {
        uint8_t type = static_cast<uint8_t>(buffer_[5]);
        util::fatalIf(type == 0 || type > kMaxFrameType,
                      "unknown wire frame type");
    }
    if (have >= 12) {
        uint32_t len = 0;
        std::memcpy(&len, buffer_.data() + 8, sizeof(len));
        util::fatalIf(len > kMaxPayloadBytes,
                      "wire frame declares an oversized payload");
    }
}

void
Deframer::feed(const char *data, size_t len)
{
    buffer_.append(data, len);
    validate();
}

std::optional<Frame>
Deframer::next()
{
    validate();
    if (buffer_.size() < kHeaderBytes)
        return std::nullopt;
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, buffer_.data() + 8, sizeof(len));
    std::memcpy(&crc, buffer_.data() + 12, sizeof(crc));
    if (buffer_.size() < kHeaderBytes + len)
        return std::nullopt;

    std::string_view payload(buffer_.data() + kHeaderBytes, len);
    util::fatalIf(util::crc32(payload) != crc,
                  "wire frame CRC mismatch (corrupt or torn frame)");

    Frame frame;
    frame.type = static_cast<FrameType>(buffer_[5]);
    frame.payload.assign(payload.data(), payload.size());
    buffer_.erase(0, kHeaderBytes + len);
    return frame;
}

// --------------------------------------------------- payload codecs

std::string
encodeSubmit(const StudyRequest &request)
{
    util::fatalIf(request.jobs.size() > kMaxJobs,
                  "study request exceeds the wire job cap");
    codec::ByteWriter w;
    w.u32(static_cast<uint32_t>(request.jobs.size()));
    for (const RunJob &job : request.jobs) {
        w.u32(static_cast<uint32_t>(job.app));
        w.u32(static_cast<uint32_t>(job.alg));
        w.u32(job.point.processors);
        w.u32(job.point.contexts);
        w.u8(job.infiniteCache ? 1 : 0);
        w.u8(static_cast<uint8_t>(job.memSystem));
    }
    w.u32(static_cast<uint32_t>(request.priority));
    w.u64(static_cast<uint64_t>(request.deadline.count()));
    return w.bytes();
}

StudyRequest
decodeSubmit(std::string_view payload)
{
    codec::ByteReader r(payload);
    StudyRequest request;
    uint32_t count = r.u32();
    util::fatalIf(count == 0 || count > kMaxJobs,
                  "study request job count out of range");
    request.jobs.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        RunJob job;
        uint32_t app = r.u32();
        uint32_t alg = r.u32();
        util::fatalIf(app >= kAppCount,
                      "study request names an unknown application");
        util::fatalIf(alg >= kAlgorithmCount,
                      "study request names an unknown algorithm");
        job.app = static_cast<workload::AppId>(app);
        job.alg = static_cast<placement::Algorithm>(alg);
        job.point.processors = r.u32();
        job.point.contexts = r.u32();
        util::fatalIf(job.point.processors == 0 ||
                          job.point.processors > 1024 ||
                          job.point.contexts == 0 ||
                          job.point.contexts > 1024,
                      "study request machine point out of range");
        job.infiniteCache = r.u8() != 0;
        uint8_t mem = r.u8();
        util::fatalIf(mem >= kMemSystemCount,
                      "study request names an unknown memory system");
        job.memSystem = static_cast<experiment::MemSystem>(mem);
        request.jobs.push_back(job);
    }
    request.priority = static_cast<int32_t>(r.u32());
    request.deadline = std::chrono::milliseconds(
        static_cast<int64_t>(r.u64()));
    util::fatalIf(!r.done(), "study request has trailing bytes");
    return request;
}

std::string
encodeProgress(const StudyProgress &progress)
{
    codec::ByteWriter w;
    w.u8(static_cast<uint8_t>(progress.stage));
    w.u32(progress.cellsDone);
    w.u32(progress.totalCells);
    w.f64(progress.lastCellMillis);
    return w.bytes();
}

StudyProgress
decodeProgress(std::string_view payload)
{
    codec::ByteReader r(payload);
    StudyProgress progress;
    uint8_t stage = r.u8();
    util::fatalIf(stage > kMaxStage,
                  "progress frame names an unknown stage");
    progress.stage = static_cast<StudyProgress::Stage>(stage);
    progress.cellsDone = r.u32();
    progress.totalCells = r.u32();
    util::fatalIf(progress.totalCells > kMaxJobs ||
                      progress.cellsDone > progress.totalCells,
                  "progress frame cell counts out of range");
    progress.lastCellMillis = r.f64();
    util::fatalIf(!r.done(), "progress frame has trailing bytes");
    return progress;
}

std::string
encodeResponse(const StudyResponse &response)
{
    util::fatalIf(response.outcomes.size() > kMaxJobs,
                  "study response exceeds the wire outcome cap");
    codec::ByteWriter w;
    w.u8(static_cast<uint8_t>(response.status));
    putString(w, response.error);
    w.u64(response.cacheHits);
    w.u64(response.executed);
    w.u64(response.cancelledCells);
    w.f64(response.queueMillis);
    w.f64(response.totalMillis);
    w.u32(static_cast<uint32_t>(response.outcomes.size()));
    for (const Outcome<RunResult> &outcome : response.outcomes) {
        w.u8(outcome.ok() ? 1 : 0);
        if (outcome.ok())
            codec::writeRunResult(w, outcome.value());
        else
            putString(w, outcome.error());
    }
    return w.bytes();
}

StudyResponse
decodeResponse(std::string_view payload)
{
    codec::ByteReader r(payload);
    StudyResponse response;
    uint8_t status = r.u8();
    util::fatalIf(status > kMaxStatus,
                  "study response names an unknown status");
    response.status = static_cast<StudyStatus>(status);
    response.error = getString(r);
    response.cacheHits = r.u64();
    response.executed = r.u64();
    response.cancelledCells = r.u64();
    response.queueMillis = r.f64();
    response.totalMillis = r.f64();
    uint32_t count = r.u32();
    util::fatalIf(count > kMaxJobs,
                  "study response outcome count out of range");
    response.outcomes.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        if (r.u8() != 0) {
            response.outcomes.push_back(
                Outcome<RunResult>::success(codec::readRunResult(r)));
        } else {
            response.outcomes.push_back(
                Outcome<RunResult>::failure(getString(r)));
        }
    }
    util::fatalIf(!r.done(), "study response has trailing bytes");
    return response;
}

std::string
encodeReject(RejectCode code, std::string_view reason)
{
    codec::ByteWriter w;
    w.u8(static_cast<uint8_t>(code));
    putString(w, reason);
    return w.bytes();
}

Reject
decodeReject(std::string_view payload)
{
    codec::ByteReader r(payload);
    Reject reject;
    uint8_t code = r.u8();
    util::fatalIf(code == 0 || code > kMaxRejectCode,
                  "reject frame names an unknown code");
    reject.code = static_cast<RejectCode>(code);
    reject.reason = getString(r);
    util::fatalIf(!r.done(), "reject frame has trailing bytes");
    return reject;
}

uint64_t
requestDigest(const StudyRequest &request)
{
    return util::fnv1a(encodeSubmit(request));
}

} // namespace tsp::svc::wire
