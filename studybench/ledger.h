/**
 * @file
 * The traced run's span ledger. Each thread records spans on its own
 * Tape: a root span is one unit of work (set-up, one cell, the
 * report), and the spans inside it are calls into the program's
 * layers, named "<layer>.<call>" after the src/ module they enter.
 * Spans stay in memory until the run ends.
 */

#ifndef STUDYBENCH_LEDGER_H
#define STUDYBENCH_LEDGER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace studybench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p from to @p to. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** One recorded span. */
struct Span
{
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
    int64_t parent = -1;  //!< index on the same Tape; -1 for a root
    int64_t cell = -1;    //!< cell id; -1 outside cells
};

/** The spans of one thread, in start order. */
class Tape
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    size_t open(std::string name, int64_t cell = -1);

    /** Close the span @p index (the innermost open one). */
    void close(size_t index);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** A span open for the lifetime of this object. */
class Scope
{
  public:
    Scope(Tape &tape, std::string name, int64_t cell = -1)
        : tape_(tape), index_(tape.open(std::move(name), cell))
    {
    }

    ~Scope() { tape_.close(index_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tape &tape_;
    size_t index_;
};

/** Self time and call statistics of one span name. */
struct CallStats
{
    double selfMs = 0;
    double maxMs = 0;  //!< longest single call (wall, not self)
    uint64_t calls = 0;
};

/** What the ledger adds up to. */
struct LedgerSummary
{
    /** Summed duration of the root spans: the traced busy time. */
    double busyMs = 0;

    /** Share of busy time covered by layer spans (1 - root self). */
    double coverage = 0;

    /** Per span name ("sim.simulate"), roots excluded. */
    std::map<std::string, CallStats> calls;

    /** Self time per layer (the name's prefix before the dot). */
    std::map<std::string, double> layerMs;

    /** Self milliseconds of layer @p layer (0 when absent). */
    double layer(const std::string &layer) const;

    /** Self milliseconds of span name @p name (0 when absent). */
    double call(const std::string &name) const;
};

/** Add up the spans of every tape. */
LedgerSummary summarize(const std::vector<const Tape *> &tapes);

/** Write every span of @p tapes to @p path, one JSON object a line. */
void writeSpans(const std::string &path,
                const std::vector<const Tape *> &tapes);

} // namespace studybench

#endif // STUDYBENCH_LEDGER_H
