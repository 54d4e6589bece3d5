/**
 * @file
 * Failure containment: monotonic deadlines (DESIGN.md §10).
 *
 * A Deadline is a point on the monotonic clock and forms the ambient
 * containment context of a thread: ScopedDeadline installs one
 * (combining with any outer scope — the effective deadline is the
 * sooner of the two), the thread pool republishes the caller's
 * context in its workers, and the long loops of the pipeline — KL
 * partitioning passes, the modulo scheduler's placement loop, the
 * simulator's event loop — poll checkDeadline() and surface
 * ErrorCode::DeadlineExceeded as an ordinary structured status.
 *
 * The unarmed fast path is one thread-local boolean: code that polls
 * in a hot loop pays nothing until a containment context exists.
 * Polling is cooperative — a trip is detected at the next check, so
 * bounds are approximate by one loop body, never violated by more.
 */

#ifndef SELVEC_SUPPORT_DEADLINE_HH
#define SELVEC_SUPPORT_DEADLINE_HH

#include <chrono>

#include "support/status.hh"

namespace selvec
{

/** A point on the monotonic clock; default-constructed: unlimited. */
class Deadline
{
  public:
    Deadline() = default;

    /** No bound (same as a default-constructed Deadline). */
    static Deadline
    never()
    {
        return Deadline();
    }

    /** `ms` milliseconds from now (ms <= 0: already expired). */
    static Deadline
    afterMs(int64_t ms)
    {
        Deadline d;
        d.limited = true;
        d.when = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms);
        return d;
    }

    bool unlimited() const { return !limited; }

    bool
    expired() const
    {
        return limited && std::chrono::steady_clock::now() >= when;
    }

    /** Milliseconds until expiry (clamped to >= 0; meaningless for
     *  unlimited deadlines). */
    int64_t
    remainingMs() const
    {
        if (!limited)
            return INT64_MAX;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            when - std::chrono::steady_clock::now());
        return left.count() < 0 ? 0 : left.count();
    }

    /** The sooner of two deadlines. */
    static Deadline
    sooner(const Deadline &a, const Deadline &b)
    {
        if (a.unlimited())
            return b;
        if (b.unlimited())
            return a;
        Deadline d;
        d.limited = true;
        d.when = a.when < b.when ? a.when : b.when;
        return d;
    }

  private:
    bool limited = false;
    std::chrono::steady_clock::time_point when{};
};

/** The ambient containment context of a thread. */
struct DeadlineContext
{
    Deadline deadline;

    bool armed() const { return !deadline.unlimited(); }
};

/** This thread's current context (unarmed when none installed). */
DeadlineContext currentDeadlineContext();

/** Whether this thread has a deadline installed — one thread-local
 *  load, the hot-loop guard before checkDeadline(). */
bool deadlineArmed();

/**
 * Ok while the ambient deadline has not passed; otherwise a
 * DeadlineExceeded error attributed to `stage`.
 */
Status checkDeadline(const char *stage);

/**
 * Install a containment context for the current scope. The new
 * deadline combines with any outer one (sooner wins). `adopt`
 * constructs install the context verbatim — the thread-pool workers
 * use that to mirror the batch caller's context exactly.
 */
class ScopedDeadline
{
  public:
    explicit ScopedDeadline(Deadline d);

    /** Verbatim adoption (no combining with the outer scope). */
    struct AdoptTag
    {
    };
    ScopedDeadline(AdoptTag, const DeadlineContext &ctx);

    ~ScopedDeadline();

    ScopedDeadline(const ScopedDeadline &) = delete;
    ScopedDeadline &operator=(const ScopedDeadline &) = delete;

  private:
    DeadlineContext saved;
    bool savedArmed;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_DEADLINE_HH
