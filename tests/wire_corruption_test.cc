/**
 * @file
 * Fuzz-style corruption tests of the service wire protocol
 * (svc::wire): roundtrips, byte-at-a-time delivery parity, truncated
 * frames, flipped CRCs, oversized declared lengths rejected before
 * buffering, garbage streams, and a mutation fuzz loop — a malformed
 * stream must always throw util::FatalError (or stay incomplete),
 * never crash, over-allocate, or decode garbage silently.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "experiment/configs.h"
#include "svc/daemon.h"
#include "svc/wire.h"
#include "util/error.h"

namespace tsp::svc::wire {
namespace {

using experiment::MachinePoint;
using experiment::RunJob;

/** splitmix64: deterministic mutation stream for the fuzz legs. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

StudyRequest
sampleRequest()
{
    StudyRequest request;
    request.priority = 2;
    request.deadline = std::chrono::milliseconds(1500);
    request.jobs.push_back({workload::AppId::Water,
                            placement::Algorithm::LoadBal,
                            MachinePoint{4, 2}, false});
    request.jobs.push_back({workload::AppId::BarnesHut,
                            placement::Algorithm::ShareRefs,
                            MachinePoint{8, 4}, true,
                            experiment::MemSystem::SharedL2});
    return request;
}

std::string
sampleFrame()
{
    return encodeFrame(FrameType::Submit,
                       encodeSubmit(sampleRequest()));
}

/** Feed a whole buffer; returns every completed frame. */
std::vector<Frame>
pump(Deframer &deframer, const std::string &bytes, size_t chunk)
{
    std::vector<Frame> frames;
    for (size_t off = 0; off < bytes.size(); off += chunk) {
        deframer.feed(bytes.data() + off,
                      std::min(chunk, bytes.size() - off));
        while (std::optional<Frame> frame = deframer.next())
            frames.push_back(std::move(*frame));
    }
    return frames;
}

// ------------------------------------------------------- roundtrips

TEST(WireRoundtrip, SubmitSurvivesEncodeDecode)
{
    StudyRequest request = sampleRequest();
    StudyRequest back = decodeSubmit(encodeSubmit(request));
    ASSERT_EQ(back.jobs.size(), request.jobs.size());
    for (size_t i = 0; i < request.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].app, request.jobs[i].app);
        EXPECT_EQ(back.jobs[i].alg, request.jobs[i].alg);
        EXPECT_EQ(back.jobs[i].point.processors,
                  request.jobs[i].point.processors);
        EXPECT_EQ(back.jobs[i].point.contexts,
                  request.jobs[i].point.contexts);
        EXPECT_EQ(back.jobs[i].infiniteCache,
                  request.jobs[i].infiniteCache);
        EXPECT_EQ(back.jobs[i].memSystem,
                  request.jobs[i].memSystem);
    }
    EXPECT_EQ(back.priority, request.priority);
    EXPECT_EQ(back.deadline, request.deadline);
    EXPECT_FALSE(back.onProgress);
    EXPECT_FALSE(back.onComplete);
}

TEST(WireRoundtrip, ProgressAndRejectSurvive)
{
    StudyProgress progress;
    progress.stage = StudyProgress::Stage::Running;
    progress.cellsDone = 3;
    progress.totalCells = 7;
    progress.lastCellMillis = 12.25;
    StudyProgress p = decodeProgress(encodeProgress(progress));
    EXPECT_EQ(p.stage, progress.stage);
    EXPECT_EQ(p.cellsDone, progress.cellsDone);
    EXPECT_EQ(p.totalCells, progress.totalCells);
    EXPECT_EQ(p.lastCellMillis, progress.lastCellMillis);

    Reject reject = decodeReject(
        encodeReject(RejectCode::Draining, "shutting down"));
    EXPECT_EQ(reject.code, RejectCode::Draining);
    EXPECT_EQ(reject.reason, "shutting down");
}

TEST(WireRoundtrip, RequestDigestIsStableAndConfigSensitive)
{
    StudyRequest request = sampleRequest();
    EXPECT_EQ(requestDigest(request), requestDigest(request));
    StudyRequest other = sampleRequest();
    other.jobs[0].point.processors = 16;
    EXPECT_NE(requestDigest(request), requestDigest(other));
}

// ------------------------------------------------ delivery framings

TEST(WireDeframer, ByteAtATimeMatchesOneShot)
{
    std::string bytes = sampleFrame() + sampleFrame();
    Deframer whole;
    std::vector<Frame> oneShot = pump(whole, bytes, bytes.size());
    Deframer dribble;
    std::vector<Frame> slow = pump(dribble, bytes, 1);
    ASSERT_EQ(oneShot.size(), 2u);
    ASSERT_EQ(slow.size(), 2u);
    for (size_t i = 0; i < oneShot.size(); ++i) {
        EXPECT_EQ(oneShot[i].type, slow[i].type);
        EXPECT_EQ(oneShot[i].payload, slow[i].payload);
    }
    EXPECT_EQ(whole.buffered(), 0u);
    EXPECT_EQ(dribble.buffered(), 0u);
}

TEST(WireDeframer, TruncatedFrameStaysIncompleteNotCorrupt)
{
    std::string frame = sampleFrame();
    for (size_t cut = 0; cut < frame.size(); ++cut) {
        Deframer deframer;
        deframer.feed(frame.data(), cut);
        EXPECT_FALSE(deframer.next().has_value()) << "cut=" << cut;
        if (cut > 0) {
            EXPECT_TRUE(deframer.midFrame());
        }
    }
}

// ------------------------------------------------- malformed frames

TEST(WireDeframer, BadMagicPoisonsTheStreamEagerly)
{
    std::string frame = sampleFrame();
    frame[0] = 'X';
    Deframer deframer;
    EXPECT_THROW(deframer.feed(frame.data(), frame.size()),
                 util::FatalError);
}

TEST(WireDeframer, WrongVersionAndTypeAreRejected)
{
    {
        std::string frame = sampleFrame();
        frame[4] = static_cast<char>(kVersion + 1);
        Deframer deframer;
        EXPECT_THROW(deframer.feed(frame.data(), frame.size()),
                     util::FatalError);
    }
    {
        std::string frame = sampleFrame();
        frame[5] = 0;  // no frame type 0
        Deframer deframer;
        EXPECT_THROW(deframer.feed(frame.data(), frame.size()),
                     util::FatalError);
    }
}

TEST(WireDeframer, OversizedDeclaredLengthRejectedBeforeBuffering)
{
    // A header declaring a huge payload must poison the stream the
    // moment the header is visible — a malicious length can never
    // drive an allocation or a long buffering wait.
    std::string frame = sampleFrame();
    uint32_t evil = kMaxPayloadBytes + 1;
    std::memcpy(&frame[8], &evil, sizeof(evil));
    Deframer deframer;
    EXPECT_THROW(deframer.feed(frame.data(), kHeaderBytes),
                 util::FatalError);
    EXPECT_LE(deframer.buffered(), kHeaderBytes);
}

TEST(WireDeframer, FlippedCrcFailsAtTheFrameBoundary)
{
    std::string frame = sampleFrame();
    frame[frame.size() - 1] ^= 0x01;  // payload bit rot
    Deframer deframer;
    deframer.feed(frame.data(), frame.size());
    EXPECT_THROW(deframer.next(), util::FatalError);
}

TEST(WireDeframer, GarbageAfterAGoodFrameStillDeliversTheGoodOne)
{
    std::string good = sampleFrame();
    std::string bytes = good + "interleaved garbage bytes!!";
    Deframer deframer;
    bool poisoned = false;
    std::vector<Frame> frames;
    try {
        frames = pump(deframer, bytes, 7);
    } catch (const util::FatalError &) {
        poisoned = true;
    }
    // The good frame may or may not have been extracted before the
    // garbage poisoned the stream, but the stream must end poisoned.
    EXPECT_TRUE(poisoned);
    for (const Frame &frame : frames)
        EXPECT_EQ(frame.payload, good.substr(kHeaderBytes));
}

TEST(WirePayloads, TruncatedSubmitPayloadAlwaysThrows)
{
    std::string payload = encodeSubmit(sampleRequest());
    for (size_t cut = 0; cut < payload.size(); ++cut) {
        EXPECT_THROW(decodeSubmit(payload.substr(0, cut)),
                     util::FatalError)
            << "cut=" << cut;
    }
}

TEST(WirePayloads, SubmitEnumAndCountRangesAreEnforced)
{
    std::string payload = encodeSubmit(sampleRequest());
    {
        std::string evil = payload;
        uint32_t count = kMaxJobs + 1;
        std::memcpy(&evil[0], &count, sizeof(count));
        EXPECT_THROW(decodeSubmit(evil), util::FatalError);
    }
    {
        std::string evil = payload;
        uint32_t badApp = 255;  // AppId range check
        std::memcpy(&evil[4], &badApp, sizeof(badApp));
        EXPECT_THROW(decodeSubmit(evil), util::FatalError);
    }
    {
        std::string evil = payload;
        evil += "trailing";  // trailing bytes are an error
        EXPECT_THROW(decodeSubmit(evil), util::FatalError);
    }
}

TEST(WirePayloads, ProgressRangeChecksHold)
{
    StudyProgress progress;
    progress.stage = StudyProgress::Stage::Running;
    progress.cellsDone = 2;
    progress.totalCells = 4;
    std::string payload = encodeProgress(progress);
    {
        std::string evil = payload;
        evil[0] = 9;  // unknown stage
        EXPECT_THROW(decodeProgress(evil), util::FatalError);
    }
    {
        std::string evil = payload;
        uint32_t done = 5;  // cellsDone > totalCells
        std::memcpy(&evil[1], &done, sizeof(done));
        EXPECT_THROW(decodeProgress(evil), util::FatalError);
    }
}

// --------------------------------------------------- mutation fuzz

TEST(WireFuzz, MutatedFramesNeverCrashOrOverAllocate)
{
    const std::string pristine = sampleFrame();
    uint64_t rng = 0x77697265u;  // "wire"
    size_t delivered = 0, poisoned = 0, incomplete = 0;
    for (int iter = 0; iter < 500; ++iter) {
        std::string frame = pristine;
        unsigned flips = 1 + nextRandom(rng) % 5;
        for (unsigned f = 0; f < flips; ++f) {
            size_t pos = nextRandom(rng) % frame.size();
            frame[pos] ^= static_cast<char>(1 + nextRandom(rng) % 255);
        }
        // Occasionally truncate, duplicate, or prepend garbage too.
        switch (nextRandom(rng) % 4) {
        case 0:
            frame = frame.substr(0, nextRandom(rng) % frame.size());
            break;
        case 1:
            frame += pristine;
            break;
        case 2:
            frame.insert(0, 1 + nextRandom(rng) % 8, 'Z');
            break;
        default:
            break;
        }

        Deframer deframer;
        try {
            size_t chunk = 1 + nextRandom(rng) % 64;
            std::vector<Frame> frames = pump(deframer, frame, chunk);
            for (const Frame &got : frames) {
                // A frame that survives the CRC still has to survive
                // the payload codec's range checks — contained too.
                try {
                    if (got.type == FrameType::Submit)
                        decodeSubmit(got.payload);
                } catch (const util::FatalError &) {
                }
                ++delivered;
            }
            if (frames.empty())
                ++incomplete;
        } catch (const util::FatalError &) {
            ++poisoned;
        }
        // The deframer must never buffer more than one frame's worth
        // plus a header — the declared-length cap bounds it.
        EXPECT_LE(deframer.buffered(),
                  kHeaderBytes + kMaxPayloadBytes);
    }
    // The mix must actually exercise both rejection and survival.
    EXPECT_GT(poisoned, 100u);
    EXPECT_GT(delivered + incomplete, 50u);
}

} // namespace
} // namespace tsp::svc::wire
