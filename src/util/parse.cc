#include "util/parse.h"

#include <cctype>
#include <charconv>

#include "util/error.h"
#include "util/logging.h"

namespace tsp::util {

uint64_t
parseUnsigned(const std::string &text, const std::string &what,
              uint64_t min, uint64_t max)
{
    fatalIf(text.empty(), what + " needs a numeric value");
    for (char c : text) {
        fatalIf(!std::isdigit(static_cast<unsigned char>(c)),
                concat(what, ": invalid numeric value '", text, "'",
                       text[0] == '-' ? " (must be non-negative)"
                                      : ""));
    }
    uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(
        text.data(), text.data() + text.size(), value, 10);
    fatalIf(ec == std::errc::result_out_of_range ||
                value > max,
            concat(what, ": value '", text, "' is too large (max ",
                   max, ")"));
    fatalIf(ec != std::errc() || ptr != text.data() + text.size(),
            concat(what, ": invalid numeric value '", text, "'"));
    fatalIf(value < min,
            concat(what, ": value ", value, " is too small (min ",
                   min, ")"));
    return value;
}

uint32_t
parseUnsigned32(const std::string &text, const std::string &what,
                uint32_t min, uint32_t max)
{
    return static_cast<uint32_t>(
        parseUnsigned(text, what, min, max));
}

std::vector<uint64_t>
parseList(const std::string &text, const std::string &what,
          uint64_t min, uint64_t max)
{
    std::vector<uint64_t> out;
    for (size_t start = 0;;) {
        const size_t comma = text.find(',', start);
        out.push_back(parseUnsigned(text.substr(start, comma - start),
                                    what, min, max));
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

} // namespace tsp::util
