/**
 * @file
 * A fixed-size thread pool for batch-parallel loops, deliberately
 * without work stealing: parallelFor(n, fn) publishes one batch of n
 * index-addressed tasks, workers claim indices from a shared atomic
 * counter until the batch drains, and the caller blocks until every
 * task has finished. Tasks are claimed in index order, so a batch is
 * a deterministic partition of [0, n) no matter how many workers run
 * it — the property the driver's byte-identical-output contract
 * leans on (see DESIGN.md §8).
 *
 * With one worker (or none), parallelFor degrades to a plain inline
 * loop on the calling thread: `--jobs 1` is bit-for-bit todays's
 * serial behavior, not a one-thread simulation of parallelism. When
 * workers do run tasks, the caller never executes tasks itself; a
 * task that needs the caller's context (trace spans, stats sinks)
 * must capture it explicitly (TraceContextScope, ScopedStatsSink).
 * The caller's deadline context, by contrast, is republished
 * automatically: every task of a batch runs under the
 * DeadlineContext the caller had when it published the batch, so
 * `--deadline-ms` bounds worker threads too (DESIGN.md §10).
 *
 * Re-entrancy: parallelFor called from inside a pool task runs the
 * nested batch inline on that worker — nesting never deadlocks and
 * never oversubscribes.
 *
 * Failure semantics: parallelForAll drains the whole batch and
 * returns one exception_ptr slot per index (null = task succeeded),
 * so no concurrent failure is ever dropped. parallelFor is a
 * convenience wrapper that rethrows the lowest-index exception —
 * deterministic at any job count.
 *
 * Every batch bumps the jobs-invariant `pool.batches` / `pool.tasks`
 * counters (never a thread count, which would vary with --jobs and
 * break document byte-identity).
 */

#ifndef SELVEC_SUPPORT_THREADPOOL_HH
#define SELVEC_SUPPORT_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/deadline.hh"

namespace selvec
{

/** Hardware concurrency, clamped to at least 1. */
int hardwareJobs();

/**
 * Resolve a --jobs request: positive values pass through, anything
 * else (0, negative: "pick for me") resolves to hardwareJobs().
 */
int resolveJobs(int requested);

class ThreadPool
{
  public:
    /**
     * Spawn `jobs` workers (clamped to >= 1). A 1-job pool spawns no
     * threads at all; parallelFor then runs inline.
     */
    explicit ThreadPool(int jobs);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** The resolved job count (>= 1). */
    int jobs() const { return jobCount; }

    /**
     * Run fn(0) .. fn(n-1), returning once all have finished. Inline
     * on the calling thread when the pool has one job, n <= 1, or the
     * call is re-entrant from a pool task; otherwise tasks run only
     * on worker threads and the caller waits. If any tasks threw, the
     * lowest-index exception is rethrown after the batch drains.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Like parallelFor, but collect instead of rethrow: the returned
     * vector has one slot per index, null on success, the task's
     * exception otherwise. Always drains the whole batch — one failed
     * task never prevents its siblings from running, and no failure
     * is lost. The quarantine layer of evaluateSuite builds on this.
     */
    std::vector<std::exception_ptr>
    parallelForAll(size_t n, const std::function<void(size_t)> &fn);

  private:
    /**
     * One published batch. It lives on the publishing caller's stack;
     * a worker adopts it by generation and holds it (`active`) while
     * claiming indices from its own counter, and the caller returns
     * only once every index is done and every adopter has let go, so
     * no worker ever claims from, or runs the fn of, a retired batch.
     */
    struct Batch
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t total = 0;
        std::exception_ptr *errors = nullptr;  ///< one slot per index
        DeadlineContext context;    ///< caller's, adopted by workers
        std::atomic<size_t> nextIndex{0};
        size_t done = 0;            ///< guarded by the pool mutex
        int active = 0;             ///< adopters; guarded likewise
    };

    void workerMain();

    const int jobCount;
    std::vector<std::thread> workers;

    std::mutex mutex;
    std::condition_variable workCv;  ///< workers: a new batch arrived
    std::condition_variable doneCv;  ///< caller: the batch drained
    Batch *current = nullptr;        ///< guarded by mutex
    uint64_t generation = 0;         ///< guarded by mutex
    bool shutdown = false;           ///< guarded by mutex
};

} // namespace selvec

#endif // SELVEC_SUPPORT_THREADPOOL_HH
