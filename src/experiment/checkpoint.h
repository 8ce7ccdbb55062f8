/**
 * @file
 * The crash-safe result store. A Checkpoint maps each completed cell
 * (app x algorithm x point x cache x memory system) to its full
 * RunResult and keeps the map in an append-only file. A sweep
 * (`SweepOptions::checkpoint`, `tsp-run --checkpoint`) records every
 * cell it completes, so a killed sweep resumes by replaying the file
 * and simulating only the missing cells; the daemon
 * (`Daemon::Config::storePath`, `tsp-run serve --store`) serves repeated
 * cells from it across restarts. Both may share one file.
 *
 * File format ("TSPS", version 3, little-endian):
 *
 *     magic "TSPS" | u32 version | u32 workload scale
 *     record*:  u32 payloadBytes | u32 crc32(payload) | payload
 *     payload:  u64 fnv1a(key) | u32 keyBytes | key | RunResult
 *     key:      u32 scale | u32 app | u32 alg | u32 processors |
 *               u32 contexts | u8 infiniteCache | u8 memSystem
 *
 * The RunResult is serialized by experiment::codec bit-exactly, so a
 * replayed sweep's report is identical to an uninterrupted run.
 *
 * Durability: record() appends one frame under an exclusive flock on
 * the file itself, retried with jittered backoff. Under the lock it
 * first reads what other processes appended since this handle last
 * looked, adopts those records, truncates a torn tail (a writer
 * killed mid-append) in place and skips any record whose key landed
 * meanwhile, so cooperating writers neither lose nor duplicate each
 * other's records. Opening replays every intact record under a
 * shared lock and drops a truncated or corrupt tail with a warning.
 * A kill loses at most the frame being appended.
 *
 * Fault sites: `store.load` (open/replay), `store.lock` (lock
 * acquisition) and `store.append` (the append itself).
 */

#ifndef TSP_EXPERIMENT_CHECKPOINT_H
#define TSP_EXPERIMENT_CHECKPOINT_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/lab.h"

namespace tsp::experiment {

struct RunJob;

/** Append-only, checksummed store of completed cells. Thread-safe. */
class Checkpoint
{
  public:
    /**
     * Open the store at @p path for a lab at workload @p scale,
     * replaying every intact record; a missing file is an empty store,
     * created by the first record(). Throws FatalError when the file
     * is not a TSPS store, is a store of another version (no older
     * layout is read; delete it and its cells are recomputed) or was
     * written at a different scale (its results would not be
     * comparable).
     */
    Checkpoint(std::string path, uint32_t scale);

    /** The store's file path. */
    const std::string &path() const { return path_; }

    /** Number of resident results. */
    size_t size() const;

    /** Bytes of truncated/corrupt trailing data dropped on open. */
    uint64_t droppedBytes() const { return dropped_; }

    /** The stored result of @p job, if any (store.hits/misses). */
    std::optional<RunResult> lookup(const RunJob &job) const;

    /**
     * Store @p result for @p job and append it to the file; returns
     * false (writing nothing) when the key is already resident. If the
     * append fails past its retries, the result stays resident (served
     * to lookups, appended with the next record) and the error
     * propagates.
     */
    bool record(const RunJob &job, const RunResult &result);

  private:
    /**
     * Adopt every intact record in @p bytes, the file's contents from
     * byte @p offset on (a header first when @p offset is 0). Returns
     * the file offset just past the last intact record.
     */
    uint64_t adopt(std::string_view bytes, uint64_t offset);

    /** Append every unwritten record that is not on disk yet. */
    void append();

    std::string path_;
    uint32_t scale_;
    uint64_t dropped_ = 0;

    mutable std::mutex mutex_;
    std::map<std::string, RunResult> results_;  //!< by canonical key
    std::vector<std::string> unwritten_;  //!< resident, not yet on disk
    uint64_t end_ = 0;  //!< end of the intact records seen on disk
};

} // namespace tsp::experiment

#endif // TSP_EXPERIMENT_CHECKPOINT_H
