/**
 * @file
 * The tools' one flag parser. Args walks a command line and hands out
 * flag values; a missing or bad value, and a bad positional argument,
 * is a UsageError that names the flag or argument, and each tool's
 * main() prints it and exits 2. The flags more than one tool takes are
 * defined here once: name, help line, and the parse that bounds the
 * value. Parsing starts no thread, so a thread count is rejected
 * before any thread starts.
 */

#ifndef TSP_TOOLS_FLAGS_H
#define TSP_TOOLS_FLAGS_H

#include <algorithm>
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

/** Exit code of a usage error. */
constexpr int kExitUsage = 2;

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
 * UsageError naming @p what. Also the parse of a positional argument.
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

/** A flag more than one tool takes: its name, help and value parse. */
template <typename T>
struct Flag
{
    const char *name;
    const char *value;  //!< placeholder in the help line, e.g. "N"
    const char *help;
    T (*parse)(const std::string &text, const std::string &what);

    /** "  --scale N          workload scale ...\n" */
    std::string
    helpLine() const
    {
        std::string line = util::concat("  ", name, " ", value);
        line.resize(std::max<size_t>(line.size() + 1, 22), ' ');
        return line + help + "\n";
    }
};

inline const Flag<uint32_t> kScale{
    "--scale", "N", "workload scale divisor, a power of two",
    parseScale};
inline const Flag<workload::AppId> kApp{
    "--app", "NAME", "suite application, e.g. Water or FFT", parseApp};
inline const Flag<std::chrono::milliseconds> kDeadline{
    "--deadline", "MS",
    "cancel the cells not started within MS ms (0 = none)",
    parseMillis};
inline const Flag<std::string> kHost{
    "--host", "ADDR", "server address (default 127.0.0.1)", parseText};
inline const Flag<std::string> kMetricsOut{
    "--metrics-out", "PATH",
    "write the metrics registry as JSON to PATH at exit", parseText};

/** The help lines of @p flags, one each. */
template <typename... T>
std::string
helpLines(const Flag<T> &...flags)
{
    return (flags.helpLine() + ...);
}

/** Walks a command's flags, handing out their values. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
        : argc_(argc), argv_(argv), next_(first)
    {
    }

    /** Step to the next flag; false when none is left. */
    bool
    next()
    {
        if (next_ >= argc_)
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

    /** The current flag's value; a usage error naming the flag when
     *  missing. */
    const char *
    value()
    {
        if (next_ >= argc_)
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
