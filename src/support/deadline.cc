#include "support/deadline.hh"

namespace selvec
{

namespace
{

thread_local DeadlineContext tls_ctx;
thread_local bool tls_armed = false;

} // anonymous namespace

DeadlineContext
currentDeadlineContext()
{
    return tls_ctx;
}

bool
deadlineArmed()
{
    return tls_armed;
}

Status
checkDeadline(const char *stage)
{
    if (!tls_armed)
        return Status::success();
    if (tls_ctx.deadline.expired()) {
        return Status::error(ErrorCode::DeadlineExceeded, stage,
                             "deadline exceeded");
    }
    return Status::success();
}

ScopedDeadline::ScopedDeadline(Deadline d)
    : saved(tls_ctx), savedArmed(tls_armed)
{
    tls_ctx.deadline = Deadline::sooner(saved.deadline, d);
    tls_armed = tls_ctx.armed();
}

ScopedDeadline::ScopedDeadline(AdoptTag, const DeadlineContext &ctx)
    : saved(tls_ctx), savedArmed(tls_armed)
{
    tls_ctx = ctx;
    tls_armed = ctx.armed();
}

ScopedDeadline::~ScopedDeadline()
{
    tls_ctx = saved;
    tls_armed = savedArmed;
}

} // namespace selvec
