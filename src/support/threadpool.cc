#include "support/threadpool.hh"

#include "support/stats.hh"

namespace selvec
{

namespace
{

// Set while a worker runs batch tasks, so a nested parallelFor from
// inside a task runs inline instead of deadlocking on its own pool.
thread_local bool tls_in_pool_task = false;

} // anonymous namespace

int
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
resolveJobs(int requested)
{
    return requested > 0 ? requested : hardwareJobs();
}

ThreadPool::ThreadPool(int jobs)
    : jobCount(jobs < 1 ? 1 : jobs)
{
    if (jobCount <= 1)
        return;
    workers.reserve(static_cast<size_t>(jobCount));
    for (int i = 0; i < jobCount; ++i)
        workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        shutdown = true;
    }
    workCv.notify_all();
    for (std::thread &w : workers)
        w.join();
}

std::vector<std::exception_ptr>
ThreadPool::parallelForAll(size_t n,
                           const std::function<void(size_t)> &fn)
{
    // Counters are recorded on every path (inline included) so the
    // emitted stats do not depend on --jobs.
    globalStats().add("pool.batches");
    globalStats().add("pool.tasks", static_cast<int64_t>(n));
    std::vector<std::exception_ptr> errors(n);
    if (n == 0)
        return errors;
    if (workers.empty() || n <= 1 || tls_in_pool_task) {
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        return errors;
    }

    Batch batch;
    batch.fn = &fn;
    batch.total = n;
    batch.errors = errors.data();
    batch.context = currentDeadlineContext();

    std::unique_lock<std::mutex> lock(mutex);
    current = &batch;
    ++generation;
    lock.unlock();
    workCv.notify_all();

    lock.lock();
    doneCv.wait(lock, [&] {
        return batch.done == batch.total && batch.active == 0;
    });
    current = nullptr;
    return errors;
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<std::exception_ptr> errors = parallelForAll(n, fn);
    for (const std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
}

void
ThreadPool::workerMain()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
        workCv.wait(lock, [&] { return shutdown || generation != seen; });
        if (shutdown)
            return;
        seen = generation;
        // A late wake-up may find the batch already retired; there is
        // nothing to adopt then.
        Batch *batch = current;
        if (batch == nullptr)
            continue;
        ++batch->active;
        lock.unlock();

        size_t completed = 0;
        tls_in_pool_task = true;
        {
            // Mirror the batch caller's deadline/cancellation context
            // exactly, so a worker thread is bounded the same way the
            // caller would be running the task inline.
            ScopedDeadline adopt(ScopedDeadline::AdoptTag{},
                                 batch->context);
            while (true) {
                size_t i = batch->nextIndex.fetch_add(
                    1, std::memory_order_relaxed);
                if (i >= batch->total)
                    break;
                try {
                    (*batch->fn)(i);
                } catch (...) {
                    // Each index is claimed by exactly one worker, so
                    // its error slot is written without a lock.
                    batch->errors[i] = std::current_exception();
                }
                ++completed;
            }
        }
        tls_in_pool_task = false;

        lock.lock();
        batch->done += completed;
        --batch->active;
        if (batch->done == batch->total && batch->active == 0)
            doneCv.notify_all();
    }
}

} // namespace selvec
