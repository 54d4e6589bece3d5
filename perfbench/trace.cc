#include "trace.hh"

#include <sys/resource.h>

#include <chrono>
#include <iterator>
#include <string>
#include <vector>

#include "support/stats.hh"

namespace perfbench
{

namespace
{

#define PERFBENCH_TEXT(id, name) name,
const char *const kSpanNames[] = {PERFBENCH_SPAN_LIST(PERFBENCH_TEXT)};
const char *const kCountNames[] = {PERFBENCH_COUNT_LIST(PERFBENCH_TEXT)};
#undef PERFBENCH_TEXT

static_assert(static_cast<size_t>(Count::MinorFaults) == kNumCounts - 1,
              "readCounts fills the stats keys, then the page faults");

/**
 * Each read costs microseconds that count as uncovered time of the
 * operation, so a span reads only the counters its calls can move:
 * the stats around operations, compiles and pipelined runs, the page
 * faults (a system call, read inside the span) around memory-image
 * calls.
 */
bool
readsStats(SpanName name)
{
    return name == SpanName::Op || name == SpanName::Compile ||
           name == SpanName::Pipelined;
}

bool
readsFaults(SpanName name)
{
    return name == SpanName::MemFill || name == SpanName::MemDiff ||
           name == SpanName::MemFree;
}

} // anonymous namespace

const char *
spanNameText(SpanName name)
{
    return kSpanNames[static_cast<size_t>(name)];
}

const char *
countText(Count count)
{
    return kCountNames[static_cast<size_t>(count)];
}

Counts
readCounts(bool stats, bool faults)
{
    // Keys built once: a lookup then allocates nothing.
    static const std::vector<std::string> keys(
        std::begin(kCountNames), std::end(kCountNames) - 1);
    Counts counts{};
    // The harness installs no stats sink, so every call it makes
    // records into the process registry.
    const selvec::StatsRegistry &registry = selvec::processStats();
    for (size_t i = 0; stats && i < keys.size(); ++i)
        counts[i] = registry.value(keys[i]);
    if (faults) {
        struct rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        counts[static_cast<size_t>(Count::MinorFaults)] = usage.ru_minflt;
    }
    return counts;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
Tracer::beginOp(int64_t op, int64_t pass)
{
    currentOp = op;
    currentPass = pass;
    if (enabled)
        open(SpanName::Op);
}

void
Tracer::endOp()
{
    if (!enabled)
        return;
    close(stack.back());
}

void
Tracer::noteBytes(int64_t bytes)
{
    if (enabled)
        list[stack.back()].bytes += bytes;
}

size_t
Tracer::open(SpanName name)
{
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : static_cast<int32_t>(stack.back());
    span.op = currentOp;
    span.pass = currentPass;
    // The stats reads stay outside the interval (in the parent's self
    // time); the page-fault read lands inside it.
    bool faults = readsFaults(name);
    if (faults)
        span.startNs = nowNs();
    span.counts = readCounts(readsStats(name), faults);
    size_t index = list.size();
    list.push_back(span);
    stack.push_back(index);
    if (!faults)
        list[index].startNs = nowNs();
    return index;
}

void
Tracer::close(size_t index)
{
    Span &span = list[index];
    bool faults = readsFaults(span.name);
    if (!faults)
        span.endNs = nowNs();
    Counts end = readCounts(readsStats(span.name), faults);
    if (faults)
        span.endNs = nowNs();
    for (size_t i = 0; i < kNumCounts; ++i)
        span.counts[i] = end[i] - span.counts[i];
    stack.pop_back();
}

LayerTotals
layerTotals(const std::deque<Span> &spans, int64_t pass)
{
    LayerTotals totals;
    std::vector<int64_t> childNs(spans.size(), 0);
    for (const Span &span : spans) {
        if (span.pass == pass && span.parent >= 0)
            childNs[static_cast<size_t>(span.parent)] +=
                span.endNs - span.startNs;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (span.pass != pass)
            continue;
        size_t name = static_cast<size_t>(span.name);
        int64_t wall = span.endNs - span.startNs;
        totals.selfNs[name] += wall - childNs[i];
        totals.calls[name] += 1;
        totals.bytes[name] += span.bytes;
        for (size_t c = 0; c < kNumCounts; ++c)
            totals.counts[name][c] += span.counts[c];
        if (span.parent < 0) {
            totals.rootNs += wall;
            double coverage =
                wall > 0 ? static_cast<double>(childNs[i]) /
                               static_cast<double>(wall)
                         : 1.0;
            if (coverage < totals.minCoverage)
                totals.minCoverage = coverage;
        }
    }
    return totals;
}

void
writeSpansJson(std::FILE *out, const std::deque<Span> &spans)
{
    std::fputs("[", out);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(out,
                     "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                     "\"op\":%lld,\"pass\":%lld,\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"bytes\":%lld,\"counts\":{",
                     i ? "," : "", i, spanNameText(s.name), s.parent,
                     static_cast<long long>(s.op),
                     static_cast<long long>(s.pass),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.bytes));
        bool first = true;
        for (size_t c = 0; c < kNumCounts; ++c) {
            if (s.counts[c] == 0)
                continue;
            std::fprintf(out, "%s\"%s\":%lld", first ? "" : ",",
                         kCountNames[c],
                         static_cast<long long>(s.counts[c]));
            first = false;
        }
        std::fputs("}}", out);
    }
    std::fputs("]", out);
}

} // namespace perfbench
