/**
 * @file
 * Outside-in tracing for the benchmark: a span around each call the
 * harness makes into a SelVec layer's public functions, with the
 * stats-registry counters and the process's minor page faults read at
 * the same boundaries. Spans are kept in memory and written as one
 * document when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

namespace perfbench
{

/** Span names: one per layer boundary the replays cross. */
#define PERFBENCH_SPAN_LIST(X)                                          \
    X(Op, "op")                                                         \
    X(Prepare, "driver.prepare")                                        \
    X(Compile, "driver.compile")                                        \
    X(Plan, "sim.plan")                                                 \
    X(MemFill, "sim.memimage.fill")                                     \
    X(Pipelined, "sim.pipelined")                                       \
    X(Reference, "sim.reference")                                       \
    X(MemDiff, "sim.memimage.diff")                                     \
    X(LiveOuts, "driver.liveouts")                                      \
    X(MemFree, "sim.memimage.free")                                     \
    X(Parse, "service.parse")                                           \
    X(DedupKey, "service.dedup_key")                                    \
    X(Emit, "service.emit")                                             \
    X(Release, "service.release")

/** Counts read at span boundaries: stats-registry keys, then the
 *  process's minor page faults. */
#define PERFBENCH_COUNT_LIST(X)                                         \
    X(MovesEvaluated, "partition.movesEvaluated")                       \
    X(MovesCommitted, "partition.movesCommitted")                       \
    X(ModschedAttempts, "modsched.attempts")                            \
    X(ModschedBacktracks, "modsched.backtracks")                        \
    X(StreamInstances, "sim.stream.instances")                          \
    X(CacheHit, "cache.hit")                                            \
    X(CacheMiss, "cache.miss")                                          \
    X(MinorFaults, "rusage.minflt")

#define PERFBENCH_ENUM(id, name) id,
enum class SpanName : uint8_t { PERFBENCH_SPAN_LIST(PERFBENCH_ENUM) };
enum class Count : uint8_t { PERFBENCH_COUNT_LIST(PERFBENCH_ENUM) };
#undef PERFBENCH_ENUM

#define PERFBENCH_ONE(id, name) +1
constexpr size_t kNumSpanNames = 0 PERFBENCH_SPAN_LIST(PERFBENCH_ONE);
constexpr size_t kNumCounts = 0 PERFBENCH_COUNT_LIST(PERFBENCH_ONE);
#undef PERFBENCH_ONE

const char *spanNameText(SpanName name);
const char *countText(Count count);

using Counts = std::array<int64_t, kNumCounts>;

/** The counters' current values: the stats-registry keys when
 *  `stats`, the page faults from getrusage when `faults` (each 0
 *  otherwise). */
Counts readCounts(bool stats = true, bool faults = true);

int64_t nowNs();

struct Span
{
    SpanName name = SpanName::Op;
    int32_t parent = -1;        ///< index into the span list, -1: root
    int64_t op = 0;             ///< operation id shared by its spans
    int64_t pass = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t bytes = 0;          ///< payload size, where a span has one
    Counts counts{};            ///< deltas over the span
};

/**
 * Records spans when enabled; otherwise every call() runs its body
 * with no bookkeeping at all, so the same replay code serves the
 * untraced and traced variants.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled(enabled) {}

    void beginOp(int64_t op, int64_t pass);
    void endOp();

    /** Run `body` inside a child span of the open operation. */
    template <typename F>
    decltype(auto)
    call(SpanName name, F &&body)
    {
        if (!enabled)
            return body();
        Closer closer{*this, open(name)};
        return body();
    }

    /** Attach a payload size to the innermost open span. */
    void noteBytes(int64_t bytes);

    const std::deque<Span> &spans() const { return list; }

  private:
    struct Closer
    {
        Tracer &tracer;
        size_t index;
        ~Closer() { tracer.close(index); }
    };

    size_t open(SpanName name);
    void close(size_t index);

    bool enabled;
    std::deque<Span> list;      ///< a deque: appends never copy
    std::vector<size_t> stack;
    int64_t currentOp = 0;
    int64_t currentPass = 0;
};

/** Per-name totals of one set of spans. */
struct LayerTotals
{
    std::array<int64_t, kNumSpanNames> selfNs{};
    std::array<int64_t, kNumSpanNames> calls{};
    std::array<int64_t, kNumSpanNames> bytes{};
    std::array<Counts, kNumSpanNames> counts{};
    int64_t rootNs = 0;         ///< summed operation wall time
    double minCoverage = 1.0;   ///< worst children/op wall-time ratio
};

/** Self times (duration minus direct children) and counts, by span
 *  name, over the spans of one pass. */
LayerTotals layerTotals(const std::deque<Span> &spans, int64_t pass);

/** Write every span as JSON (one array, no trailing newline). */
void writeSpansJson(std::FILE *out, const std::deque<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
