/**
 * @file
 * Advisory file locking (BSD flock) for files shared between
 * processes. The result store (experiment::Checkpoint) takes a shared
 * lock to load and an exclusive lock around each append, both on the
 * data file itself, so several processes can share one store without
 * a racing writer dropping or duplicating the other's records.
 *
 * Advisory means cooperating: every writer must take the lock, and a
 * process that bypasses it is not stopped. Locks are released by the
 * destructor and — crucially for kill -9 robustness — by the kernel
 * when the holder dies, so a crashed daemon never wedges the fleet.
 */

#ifndef TSP_UTIL_FILE_LOCK_H
#define TSP_UTIL_FILE_LOCK_H

#include <string>

namespace tsp::util {

/**
 * RAII advisory flock on @p path, opened read-write (created if
 * absent). Construction blocks until the lock is granted; destruction
 * releases it and closes the file. Throws FatalError when the file
 * cannot be opened or locked.
 */
class FileLock
{
  public:
    enum class Mode {
        Shared,     //!< many readers may hold it together
        Exclusive,  //!< one writer, excluding readers too
    };

    FileLock(const std::string &path, Mode mode);
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** The locked file's descriptor, valid while the lock is held. */
    int fd() const { return fd_; }

    /**
     * True when the lock was contended — another process held a
     * conflicting lock and this acquisition had to wait. Callers use
     * this to count lock waits without the lock layer depending on
     * the metrics layer.
     */
    bool waited() const { return waited_; }

  private:
    int fd_ = -1;
    bool waited_ = false;
};

} // namespace tsp::util

#endif // TSP_UTIL_FILE_LOCK_H
