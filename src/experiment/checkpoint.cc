#include "experiment/checkpoint.h"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <sys/stat.h>
#include <unistd.h>

#include "experiment/parallel.h"
#include "experiment/run_codec.h"
#include "fault/fault.h"
#include "obs/metric_defs.h"
#include "util/checksum.h"
#include "util/error.h"
#include "util/file_lock.h"
#include "util/logging.h"
#include "util/retry.h"

namespace tsp::experiment {

namespace {

constexpr char kMagic[4] = {'T', 'S', 'P', 'S'};
// v2: job keys carry the memory-system variant; RunResult payloads
// carry the shared-L2 counters.
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(uint32_t);
constexpr size_t kFrameBytes = 2 * sizeof(uint32_t);

/** Keys are tiny fixed-layout configuration tuples. */
constexpr uint32_t kMaxKeyBytes = 256;

/** Canonical key bytes: scale, app, alg, point, cache, memory system. */
std::string
keyOf(const RunJob &job, uint32_t scale)
{
    codec::ByteWriter key;
    key.u32(scale);
    key.u32(static_cast<uint32_t>(job.app));
    key.u32(static_cast<uint32_t>(job.alg));
    key.u32(job.point.processors);
    key.u32(job.point.contexts);
    key.u8(job.infiniteCache ? 1 : 0);
    key.u8(static_cast<uint8_t>(job.memSystem));
    return key.bytes();
}

std::string
headerOf(uint32_t scale)
{
    codec::ByteWriter header;
    header.raw(kMagic, sizeof(kMagic));
    header.u32(kVersion);
    header.u32(scale);
    return header.bytes();
}

std::string
frameOf(const std::string &key, const RunResult &result)
{
    // The digest is a content-address self-check: a record whose
    // digest does not match its key is corrupt despite a valid CRC.
    codec::ByteWriter payload;
    payload.u64(util::fnv1a(key));
    payload.u32(static_cast<uint32_t>(key.size()));
    payload.raw(key.data(), key.size());
    codec::writeRunResult(payload, result);

    codec::ByteWriter frame;
    frame.u32(static_cast<uint32_t>(payload.bytes().size()));
    frame.u32(util::crc32(payload.bytes()));
    return frame.bytes() + payload.bytes();
}

uint64_t
fileSize(int fd, const std::string &path)
{
    struct stat st{};
    util::fatalIf(::fstat(fd, &st) != 0,
                  "cannot stat " + path + ": " + std::strerror(errno));
    return static_cast<uint64_t>(st.st_size);
}

/** Run @p io (::pread or ::pwrite) over all @p len bytes at @p at. */
template <typename IO, typename Byte>
void
transfer(IO io, int fd, Byte *data, size_t len, uint64_t at,
         const std::string &what)
{
    for (size_t done = 0; done < len;) {
        ssize_t n = io(fd, data + done, len - done,
                       static_cast<off_t>(at + done));
        if (n < 0 && errno == EINTR)
            continue;
        util::fatalIf(n <= 0, what + ": " +
                                  (n == 0 ? "unexpected end of file"
                                          : std::strerror(errno)));
        done += static_cast<size_t>(n);
    }
}

/** The bytes of @p fd in [from, to). */
std::string
readRange(int fd, uint64_t from, uint64_t to, const std::string &path)
{
    std::string bytes(to - from, '\0');
    transfer(::pread, fd, bytes.data(), bytes.size(), from,
             "cannot read " + path);
    return bytes;
}

} // namespace

Checkpoint::Checkpoint(std::string path, uint32_t scale)
    : path_(std::move(path)), scale_(scale)
{
    TSP_FAULT_POINT("store.load");
    if (!std::filesystem::exists(path_))
        return;  // no store yet: the first record creates it
    // Shared lock: loaders replay together, but never overlap an
    // append.
    util::FileLock lock(path_, util::FileLock::Mode::Shared);
    if (lock.waited())
        obs::storeLockWaits().inc();
    uint64_t size = fileSize(lock.fd(), path_);
    end_ = adopt(readRange(lock.fd(), 0, size, path_), 0);
    dropped_ = size - end_;
    if (dropped_ > 0) {
        util::warn(util::concat(
            "result store ", path_, ": dropping ", dropped_,
            " trailing bytes (truncated or corrupt record, likely a "
            "killed writer); ", results_.size(),
            " intact results recovered"));
    }
}

size_t
Checkpoint::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.size();
}

uint64_t
Checkpoint::adopt(std::string_view bytes, uint64_t offset)
{
    size_t pos = 0;
    if (offset == 0) {
        if (bytes.empty())
            return 0;  // created by a writer that has not appended yet
        util::fatalIf(bytes.size() < kHeaderBytes ||
                          std::memcmp(bytes.data(), kMagic,
                                      sizeof(kMagic)) != 0,
                      "not a TSPS result store: " + path_);
        codec::ByteReader header(bytes.substr(sizeof(kMagic)));
        uint32_t version = header.u32();
        uint32_t scale = header.u32();
        util::fatalIf(version != kVersion,
                      util::concat("unsupported result store version ",
                                   version, " in ", path_));
        util::fatalIf(scale != scale_,
                      util::concat("result store ", path_,
                                   " was written at workload scale ",
                                   scale, ", this lab runs at scale ",
                                   scale_));
        pos = kHeaderBytes;
    }

    size_t good = pos;
    while (bytes.size() - pos >= kFrameBytes) {  // else a torn frame
        uint32_t len = 0, crc = 0;
        std::memcpy(&len, bytes.data() + pos, sizeof(len));
        std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
        if (len > bytes.size() - pos - kFrameBytes)
            break;  // record truncated mid-payload
        std::string_view payload = bytes.substr(pos + kFrameBytes, len);
        if (util::crc32(payload) != crc)
            break;  // torn or bit-rotted record
        try {
            codec::ByteReader r(payload);
            uint64_t digest = r.u64();
            uint32_t keyLen = r.u32();
            util::fatalIf(keyLen > kMaxKeyBytes,
                          "result store key unreasonably large");
            std::string key(keyLen, '\0');
            r.raw(key.data(), keyLen);
            RunResult result = codec::readRunResult(r);
            util::fatalIf(!r.done(),
                          "result store record has trailing bytes");
            util::fatalIf(digest != util::fnv1a(key),
                          "result store record digest mismatch");
            // First writer wins (the simulation is deterministic, so
            // an honest duplicate is bit-identical anyway). A key
            // another process appended first is not appended again.
            if (!results_.emplace(key, std::move(result)).second)
                std::erase(unwritten_, key);
        } catch (const util::FatalError &) {
            break;  // malformed payload despite a valid CRC frame
        }
        pos += kFrameBytes + len;
        good = pos;
    }
    return offset + good;
}

std::optional<RunResult>
Checkpoint::lookup(const RunJob &job) const
{
    std::string key = keyOf(job, scale_);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = results_.find(key);
    if (it == results_.end()) {
        obs::storeMisses().inc();
        return std::nullopt;
    }
    obs::storeHits().inc();
    return it->second;
}

bool
Checkpoint::record(const RunJob &job, const RunResult &result)
{
    std::string key = keyOf(job, scale_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!results_.emplace(key, result).second)
        return false;

    // Resident before the append is tried: if the append fails past
    // its retries, the result is still served and rides along with
    // the next record.
    unwritten_.push_back(std::move(key));
    try {
        append();
    } catch (const std::exception &) {
        obs::storeAppendFailures().inc();
        throw;
    }
    return true;
}

void
Checkpoint::append()
{
    // Catch up and append under the exclusive lock, the whole cycle
    // retried: a failed attempt's partial frame is a torn tail that
    // the next attempt truncates.
    util::retry(
        [&] {
            TSP_FAULT_POINT("store.lock");
            util::FileLock lock(path_, util::FileLock::Mode::Exclusive);
            if (lock.waited())
                obs::storeLockWaits().inc();
            const int fd = lock.fd();
            uint64_t size = fileSize(fd, path_);
            if (size < end_)
                end_ = 0;  // replaced or cut short behind our back
            end_ = adopt(readRange(fd, end_, size, path_), end_);
            if (end_ < size) {
                util::warn(util::concat(
                    "result store ", path_, ": truncating ",
                    size - end_,
                    " torn trailing bytes (a writer killed "
                    "mid-append)"));
                int rc = ::ftruncate(fd, static_cast<off_t>(end_));
                util::fatalIf(rc != 0, "cannot truncate " + path_ +
                                           ": " + std::strerror(errno));
            }
            if (unwritten_.empty())
                return;  // every record landed from another process

            std::string bytes = end_ == 0 ? headerOf(scale_) : "";
            for (const std::string &k : unwritten_)
                bytes += frameOf(k, results_.at(k));
            TSP_FAULT_POINT("store.append");
            transfer(::pwrite, fd, bytes.data(), bytes.size(), end_,
                     "result store write failed: " + path_);
            end_ += bytes.size();
            obs::storeAppends().add(unwritten_.size());
            unwritten_.clear();
        },
        util::jitteredRetryPolicy(path_), "result store append " + path_);
}

} // namespace tsp::experiment
