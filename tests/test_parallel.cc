/**
 * @file
 * Tests for the parallel-compilation layer: the fixed thread pool
 * (including a batch-handoff stress run under a watchdog),
 * thread-local stat sinks, the batch service's dedup key, and the
 * headline determinism contract — evaluateSuite and the bench
 * documents built from it are byte-identical for every --jobs value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>

#include "driver/compilecache.hh"
#include "driver/driver.hh"
#include "driver/evaluate.hh"
#include "driver/reportjson.hh"
#include "lir/lir.hh"
#include "machine/machine.hh"
#include "support/stats.hh"
#include "support/threadpool.hh"
#include "workloads/workloads.hh"

namespace selvec
{
namespace
{

// ---------------------------------------------------------------------
// Thread pool.

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_GE(resolveJobs(-3), 1);
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        ThreadPool pool(jobs);
        const size_t n = 100;
        std::vector<std::atomic<int>> visits(n);
        pool.parallelFor(n, [&](size_t i) { visits[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "jobs=" << jobs;
    }
}

TEST(ThreadPool, SingleJobRunsInlineOnCaller)
{
    ThreadPool pool(1);
    std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> seen;
    pool.parallelFor(4, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, EmptyBatchIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, FirstExceptionPropagates)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(16,
                         [&](size_t i) {
                             if (i % 2 == 0)
                                 throw std::runtime_error("task died");
                         }),
        std::runtime_error);
    // The pool survives a failed batch.
    std::atomic<int> count{0};
    pool.parallelFor(8, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, CollectsEveryFailureNotJustTheFirst)
{
    // parallelForAll keeps one slot per index: concurrent failures
    // are all observable, and they land at their own indices — the
    // collect-all semantics suite quarantine is built on.
    for (int jobs : {1, 4}) {
        ThreadPool pool(jobs);
        std::vector<std::exception_ptr> errors =
            pool.parallelForAll(10, [&](size_t i) {
                if (i % 3 == 0)
                    throw std::runtime_error(
                        "task " + std::to_string(i) + " died");
            });
        ASSERT_EQ(errors.size(), 10u) << "jobs=" << jobs;
        for (size_t i = 0; i < errors.size(); ++i) {
            if (i % 3 != 0) {
                EXPECT_EQ(errors[i], nullptr) << i;
                continue;
            }
            ASSERT_NE(errors[i], nullptr) << i;
            try {
                std::rethrow_exception(errors[i]);
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "task " + std::to_string(i) + " died");
            }
        }
    }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailedIndex)
{
    // parallelFor's exception choice is deterministic: index order,
    // not completion order.
    ThreadPool pool(8);
    for (int round = 0; round < 3; ++round) {
        try {
            pool.parallelFor(16, [&](size_t i) {
                if (i == 5 || i == 11)
                    throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "batch should have thrown";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()), "5");
        }
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool outer(4);
    std::atomic<int> total{0};
    outer.parallelFor(4, [&](size_t) {
        ThreadPool inner(4);
        std::thread::id me = std::this_thread::get_id();
        inner.parallelFor(4, [&](size_t) {
            // Re-entrant batches run inline on the worker itself;
            // anything else risks deadlock through sink/trace state.
            EXPECT_EQ(std::this_thread::get_id(), me);
            total.fetch_add(1);
        });
    });
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, RecordsBatchAndTaskStats)
{
    StatsRegistry sink;
    {
        ScopedStatsSink scope(sink);
        ThreadPool pool(1);
        pool.parallelFor(5, [](size_t) {});
    }
    EXPECT_EQ(sink.value("pool.batches"), 1);
    EXPECT_EQ(sink.value("pool.tasks"), 5);
}

/**
 * Run `body` on a helper thread and abort the process if it has not
 * finished after `limit`: a hang then fails in seconds, not at the
 * ctest timeout.
 */
void
runWithWatchdog(std::chrono::seconds limit,
                const std::function<void()> &body)
{
    std::promise<void> finished;
    std::future<void> done = finished.get_future();
    std::thread runner([&] {
        body();
        finished.set_value();
    });
    if (done.wait_for(limit) != std::future_status::ready) {
        std::fprintf(stderr, "watchdog: test still running after %llds\n",
                     static_cast<long long>(limit.count()));
        std::abort();
    }
    runner.join();
}

TEST(ThreadPoolStress, BackToBackBatchesNeverLoseOrStealIndices)
{
    // Many tiny batches back to back on one pool: a worker that wakes
    // late must never claim the next batch's indices or run a retired
    // batch's fn. A lost index hangs the caller (the watchdog fires);
    // a stolen one shows up as a wrong visit count.
    runWithWatchdog(std::chrono::seconds(60), [] {
        StatsRegistry sink;
        ScopedStatsSink scope(sink);
        ThreadPool pool(4);
        const size_t kBatches = 100000;
        std::vector<int> visits(8);
        size_t bad = 0;
        for (size_t b = 0; b < kBatches && bad == 0; ++b) {
            size_t n = 2 + b % 7;
            std::fill(visits.begin(), visits.end(), 0);
            std::vector<std::exception_ptr> errors;
            if (b % 3 == 0) {
                // Throwing bodies: the failed index still counts as
                // done, and its error lands in its own slot.
                errors = pool.parallelForAll(n, [&](size_t i) {
                    ++visits[i];
                    if (i == b % n)
                        throw std::runtime_error("boom");
                });
            } else {
                errors = pool.parallelForAll(
                    n, [&](size_t i) { ++visits[i]; });
            }
            for (size_t i = 0; i < n; ++i) {
                bool threw = errors[i] != nullptr;
                bool should = b % 3 == 0 && i == b % n;
                if (visits[i] != 1 || threw != should)
                    ++bad;
            }
        }
        EXPECT_EQ(bad, 0u);
        EXPECT_EQ(sink.value("pool.batches"),
                  static_cast<int64_t>(kBatches));
    });
}

// ---------------------------------------------------------------------
// Thread-local stat sinks.

TEST(StatsSink, RedirectsAndMergesInOrder)
{
    StatsRegistry outer;
    StatsRegistry a, b;
    {
        ScopedStatsSink sa(a);
        globalStats().add("x.counter", 2);
        globalStats().setGauge("x.gauge", 10);
        {
            // Nesting restores the previous sink, not the process
            // registry.
            ScopedStatsSink sb(b);
            globalStats().add("x.counter", 5);
            globalStats().setGauge("x.gauge", 20);
        }
        globalStats().add("x.counter", 1);
    }
    EXPECT_EQ(a.value("x.counter"), 3);
    EXPECT_EQ(b.value("x.counter"), 5);

    outer.mergeFrom(a);
    outer.mergeFrom(b);
    EXPECT_EQ(outer.value("x.counter"), 8);
    EXPECT_EQ(outer.value("x.gauge"), 20);   // last merge wins
}

TEST(StatsSink, ToJsonCanZeroTimerNs)
{
    StatsRegistry reg;
    reg.addTimerNs("time.compile", 1234);
    JsonValue with = reg.toJson(true);
    JsonValue without = reg.toJson(false);
    EXPECT_EQ(with.findPath("time.compile.total_ns")->intValue(), 1234);
    EXPECT_EQ(without.findPath("time.compile.total_ns")->intValue(), 0);
    // Sample counts are deterministic and stay.
    EXPECT_EQ(without.findPath("time.compile.samples")->intValue(), 1);
}

// ---------------------------------------------------------------------
// End-to-end determinism.

const char *kSaxpy = R"(
array X f64 4096
array Y f64 4096
loop saxpy {
    livein a f64
    body {
        x = load X[i]
        y = load Y[i]
        ax = fmul a x
        s = fadd ax y
        store Y[i] = s
    }
}
)";

/** The full selvec-bench-v1 document a bench binary would emit for
 *  one suite, with stats taken from `sink` (timers zeroed: wall time
 *  is the one legitimately nondeterministic quantity). */
std::string
documentOf(const SuiteReport &base,
           const std::vector<SuiteReport> &techniques,
           const StatsRegistry &sink)
{
    JsonValue doc = benchDocument("test_parallel", "quick");
    JsonValue suites = JsonValue::array();
    suites.append(jsonOfSuiteComparison(base, techniques));
    doc.set("suites", std::move(suites));
    doc.set("stats", sink.toJson(false));
    return doc.dump(2);
}

std::string
runSuiteDocument(const Suite &suite, const Machine &machine, int jobs)
{
    StatsRegistry sink;
    ScopedStatsSink scope(sink);
    EvaluateOptions options;
    options.jobs = jobs;
    SuiteReport base =
        evaluateSuite(suite, machine, Technique::ModuloOnly, options);
    SuiteReport full =
        evaluateSuite(suite, machine, Technique::Full, options);
    SuiteReport sel =
        evaluateSuite(suite, machine, Technique::Selective, options);
    return documentOf(base, {full, sel}, sink);
}

// compileCacheKey() is the batch service's dedup key: it names a
// compile request by structure, so presentation fields do not
// fragment it and knobs only do where they reach the codepath.
TEST(CompileCacheTest, KeySeparatesStructureNotNames)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine a = paperMachine();
    Machine b = paperMachine();
    b.name = "renamed-but-identical";
    DriverOptions options;
    const Loop &loop = m.loops[0];
    // The machine name is presentation, not structure.
    EXPECT_EQ(compileCacheKey(loop, m.arrays, a, Technique::Selective,
                              options),
              compileCacheKey(loop, m.arrays, b, Technique::Selective,
                              options));

    Machine c = paperMachine();
    c.vectorLength *= 2;
    EXPECT_NE(compileCacheKey(loop, m.arrays, a, Technique::Selective,
                              options),
              compileCacheKey(loop, m.arrays, c, Technique::Selective,
                              options));

    // A knob that cannot reach the ModuloOnly codepath does not
    // fragment its key...
    DriverOptions comm_off;
    comm_off.partition.cost.considerCommunication = false;
    EXPECT_EQ(compileCacheKey(loop, m.arrays, a, Technique::ModuloOnly,
                              options),
              compileCacheKey(loop, m.arrays, a, Technique::ModuloOnly,
                              comm_off));
    // ...but does separate Selective compiles, where it changes the
    // partition.
    EXPECT_NE(compileCacheKey(loop, m.arrays, a, Technique::Selective,
                              options),
              compileCacheKey(loop, m.arrays, a, Technique::Selective,
                              comm_off));
}

TEST(Determinism, SuiteDocumentsAreJobCountInvariant)
{
    Suite suite = makeSuite("171.swim");
    for (WorkloadLoop &wl : suite.loops) {
        wl.tripCount = std::min<int64_t>(wl.tripCount, 96);
        wl.invocations = std::max<int64_t>(1, wl.invocations / 4);
    }
    Machine machine = paperMachine();

    std::string serial = runSuiteDocument(suite, machine, 1);
    EXPECT_EQ(serial, runSuiteDocument(suite, machine, 8));
    // A second run in the same process emits the same bytes.
    EXPECT_EQ(serial, runSuiteDocument(suite, machine, 8));
}

TEST(Determinism, ResilientCompileReportIsJobCountInvariant)
{
    Module m = parseLirOrDie(kSaxpy);
    Machine machine = paperMachine();
    for (Technique t : {Technique::Selective, Technique::ModuloOnly}) {
        ArrayTable serial_arrays = m.arrays;
        ResilientCompile serial = compileLoopResilient(
            m.loops[0], serial_arrays, machine, t, {}, 1);
        ArrayTable parallel_arrays = m.arrays;
        ResilientCompile parallel = compileLoopResilient(
            m.loops[0], parallel_arrays, machine, t, {}, 4);

        ASSERT_TRUE(serial.ok());
        ASSERT_TRUE(parallel.ok());
        EXPECT_EQ(serial.report.str(), parallel.report.str());
        EXPECT_EQ(jsonOfCompiledProgram(serial.program).dump(),
                  jsonOfCompiledProgram(parallel.program).dump());
        EXPECT_EQ(jsonOfCompileReport(serial.report).dump(),
                  jsonOfCompileReport(parallel.report).dump());
        EXPECT_EQ(serial_arrays.size(), parallel_arrays.size());
    }
}

} // anonymous namespace
} // namespace selvec
