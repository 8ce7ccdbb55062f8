#include "ledger.h"

#include <algorithm>
#include <fstream>

namespace studybench {

size_t
Tape::open(std::string name, int64_t cell)
{
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
    span.cell = cell;
    if (cell < 0 && span.parent >= 0)
        span.cell = spans_[static_cast<size_t>(span.parent)].cell;
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tape::close(size_t index)
{
    spans_[index].end = Clock::now();
    stack_.pop_back();
}

double
LedgerSummary::layer(const std::string &name) const
{
    auto it = layerMs.find(name);
    return it == layerMs.end() ? 0.0 : it->second;
}

double
LedgerSummary::call(const std::string &name) const
{
    auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second.selfMs;
}

LedgerSummary
summarize(const std::vector<const Tape *> &tapes)
{
    LedgerSummary out;
    double rootSelfMs = 0;
    for (const Tape *tape : tapes) {
        const std::vector<Span> &spans = tape->spans();
        // Children of one span run one after another on its thread,
        // so self time is the duration minus the children's sum.
        std::vector<double> childMs(spans.size(), 0.0);
        for (const Span &s : spans) {
            if (s.parent >= 0)
                childMs[static_cast<size_t>(s.parent)] +=
                    msBetween(s.start, s.end);
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            double ms = msBetween(s.start, s.end);
            double self = ms - childMs[i];
            if (s.parent < 0) {
                out.busyMs += ms;
                rootSelfMs += self;
                continue;
            }
            CallStats &c = out.calls[s.name];
            c.selfMs += self;
            c.maxMs = std::max(c.maxMs, ms);
            ++c.calls;
            out.layerMs[s.name.substr(0, s.name.find('.'))] += self;
        }
    }
    out.coverage = out.busyMs > 0 ? 1.0 - rootSelfMs / out.busyMs : 0.0;
    return out;
}

void
writeSpans(const std::string &path, const std::vector<const Tape *> &tapes)
{
    Clock::time_point epoch = Clock::time_point::max();
    for (const Tape *tape : tapes) {
        for (const Span &s : tape->spans())
            epoch = std::min(epoch, s.start);
    }
    std::ofstream out(path, std::ios::trunc);
    for (size_t t = 0; t < tapes.size(); ++t) {
        const std::vector<Span> &spans = tapes[t]->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << "{\"thread\":" << t << ",\"id\":" << i
                << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
                << ",\"name\":\"" << s.name
                << "\",\"start_ms\":" << msBetween(epoch, s.start)
                << ",\"end_ms\":" << msBetween(epoch, s.end) << "}\n";
        }
    }
}

} // namespace studybench
