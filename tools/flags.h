/**
 * @file
 * tsp-run's one argument parser. Args walks a command line and hands
 * out its positional arguments and flag values; a missing or bad
 * value, a missing or bad positional argument and a flag the command
 * does not take are each a UsageError that names the flag or
 * argument, which main() prints before it exits kExitUsage. The flags
 * more than one command takes are defined here once: name, and the
 * parse that bounds the value. Parsing starts no thread, so a thread
 * count is rejected before any thread starts.
 */

#ifndef TSP_TOOLS_FLAGS_H
#define TSP_TOOLS_FLAGS_H

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "core/algorithms.h"
#include "util/bits.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/parse.h"
#include "workload/suite.h"

namespace tsp::tools {

/** A bad command line: main() prints it and exits kExitUsage. */
struct UsageError : util::FatalError
{
    using util::FatalError::FatalError;

    /** @p error, raised by a bad value of @p what, naming @p what. */
    UsageError(const std::string &what, const util::FatalError &error)
        : util::FatalError(named(what, error.what()))
    {
    }

  private:
    static std::string
    named(const std::string &what, std::string message)
    {
        message.erase(0, std::strlen("fatal: "));
        return message.rfind(what + ":", 0) == 0 ? message
                                                 : what + ": " + message;
    }
};

/**
 * @p parse(@p text, @p what); a FatalError it throws becomes a
 * UsageError naming @p what.
 */
template <typename Parse>
std::invoke_result_t<Parse &, const std::string &, const std::string &>
parseArg(Parse parse, const std::string &text, const std::string &what)
{
    try {
        return parse(text, what);
    } catch (const util::FatalError &e) {
        throw UsageError(what, e);
    }
}

// The value parses, (text, what) -> value, throwing FatalError.

/** A workload scale divisor: a power of two, at least 1. */
inline uint32_t
parseScale(const std::string &text, const std::string &what)
{
    const uint32_t scale = util::parseUnsigned32(text, what, 1);
    util::fatalIf(!util::isPow2(scale),
                  util::concat("value ", scale, " is not a power of two"));
    return scale;
}

/** A suite application by name, e.g. "Water". */
inline workload::AppId
parseApp(const std::string &text, const std::string &)
{
    return workload::appByName(text);
}

/** A placement algorithm by name, e.g. "SHARE-REFS". */
inline placement::Algorithm
parseAlgorithm(const std::string &text, const std::string &)
{
    const auto alg = placement::algorithmFromName(text);
    util::fatalIf(!alg, "unknown algorithm: " + text);
    return *alg;
}

/** A duration in milliseconds; 0 reads as none. */
inline std::chrono::milliseconds
parseMillis(const std::string &text, const std::string &what)
{
    return std::chrono::milliseconds(util::parseUnsigned32(text, what));
}

/** A thread count, 1 to util::kMaxThreads. */
inline unsigned
parseThreads(const std::string &text, const std::string &what)
{
    return util::parseUnsigned32(text, what, 1, util::kMaxThreads);
}

/** Any text, e.g. a path or an address. */
inline std::string
parseText(const std::string &text, const std::string &)
{
    return text;
}

/** A flag more than one command takes: its name and value parse. */
template <typename T>
struct Flag
{
    const char *name;
    T (*parse)(const std::string &text, const std::string &what);
};

inline const Flag<uint32_t> kScale{"--scale", parseScale};
inline const Flag<workload::AppId> kApp{"--app", parseApp};
inline const Flag<std::chrono::milliseconds> kDeadline{"--deadline",
                                                       parseMillis};
inline const Flag<std::string> kHost{"--host", parseText};
inline const Flag<std::string> kMetricsOut{"--metrics-out", parseText};

/** Walks a command's positional arguments, then its flags. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
        : argc_(argc), argv_(argv), next_(first)
    {
    }

    /** Whether an argument is left. */
    bool more() const { return next_ < argc_; }

    /**
     * The next argument as the positional @p what, parsed by
     * @p parse(text, what); a usage error naming @p what when it is
     * missing or bad.
     */
    template <typename Parse>
    auto
    positional(Parse parse, const std::string &what)
    {
        if (!more())
            throw UsageError(what + " is required");
        return parseArg(parse, argv_[next_++], what);
    }

    /** Step to the next flag; false when none is left. */
    bool
    next()
    {
        if (!more())
            return false;
        flag_ = argv_[next_++];
        return true;
    }

    /** Whether the current flag is @p name. */
    bool is(const char *name) const { return !std::strcmp(flag_, name); }

    template <typename T>
    bool
    is(const Flag<T> &flag) const
    {
        return is(flag.name);
    }

    /** The usage error of a current flag the command does not take. */
    UsageError
    unknown() const
    {
        return UsageError(std::string(flag_) + ": unknown flag");
    }

    /** The current flag's value; a usage error naming the flag when
     *  missing. */
    const char *
    value()
    {
        if (!more())
            throw UsageError(std::string(flag_) + " needs a value");
        return argv_[next_++];
    }

    /** The current flag's value as @p flag defines it. */
    template <typename T>
    T
    get(const Flag<T> &flag)
    {
        return parsed(flag.parse);
    }

    /** The current flag's value parsed by @p parse(text, flag). */
    template <typename Parse>
    auto
    parsed(Parse parse)
    {
        const char *text = value();
        return parseArg(parse, text, flag_);
    }

    /** The current flag's value as an integer in [@p min, @p max]. */
    uint64_t
    number(uint64_t min = 0, uint64_t max = UINT64_MAX)
    {
        return parsed([&](const std::string &text,
                          const std::string &what) {
            return util::parseUnsigned(text, what, min, max);
        });
    }

    uint32_t
    number32(uint32_t min = 0, uint32_t max = UINT32_MAX)
    {
        return static_cast<uint32_t>(number(min, max));
    }

    /** The current flag's value as a comma-separated integer list. */
    std::vector<uint64_t>
    list(uint64_t min = 0, uint64_t max = UINT64_MAX)
    {
        return parsed([&](const std::string &text,
                          const std::string &what) {
            return util::parseList(text, what, min, max);
        });
    }

  private:
    int argc_;
    char **argv_;
    int next_;
    const char *flag_ = "";
};

} // namespace tsp::tools

#endif // TSP_TOOLS_FLAGS_H
