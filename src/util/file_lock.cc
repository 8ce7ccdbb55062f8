#include "util/file_lock.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "util/error.h"

namespace tsp::util {

FileLock::FileLock(const std::string &path, Mode mode)
{
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    fatalIf(fd_ < 0,
            "cannot open " + path + ": " + std::strerror(errno));

    int op = mode == Mode::Shared ? LOCK_SH : LOCK_EX;
    // Try without blocking first so contention is observable, then
    // block (retrying through signal interruptions).
    if (::flock(fd_, op | LOCK_NB) == 0)
        return;
    if (errno != EWOULDBLOCK && errno != EINTR) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        fatal("cannot lock " + path + ": " + std::strerror(err));
    }
    waited_ = true;
    while (::flock(fd_, op) != 0) {
        if (errno == EINTR)
            continue;
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        fatal("cannot lock " + path + ": " + std::strerror(err));
    }
}

FileLock::~FileLock()
{
    if (fd_ >= 0) {
        // Closing drops this descriptor's flock; kernel cleanup gives
        // the same guarantee if the process dies instead.
        ::close(fd_);
    }
}

} // namespace tsp::util
