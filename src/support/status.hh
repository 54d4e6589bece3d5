/**
 * @file
 * Structured, recoverable error reporting.
 *
 * A Status carries an error code, the pipeline stage that produced it,
 * and a human-readable message. Recoverable entry points (LIR parsing,
 * IR verification, partitioning, modulo scheduling, driver
 * compilation) return Status / Expected<T> instead of terminating the
 * process, so an embedding service survives malformed requests and
 * scheduling failures. SV_PANIC remains for genuine invariant bugs;
 * SV_FATAL survives only inside thin ...OrDie convenience wrappers.
 */

#ifndef SELVEC_SUPPORT_STATUS_HH
#define SELVEC_SUPPORT_STATUS_HH

#include <string>

namespace selvec
{

/** Why a recoverable stage failed. */
enum class ErrorCode : uint8_t {
    Ok,
    InvalidInput,               ///< malformed LIR / machine / bindings
    VerifyFailed,               ///< IR or schedule validation rejected
    ScheduleBudgetExhausted,    ///< II search gave up
    PartitionFailed,            ///< selective partitioning failed
    IoError,                    ///< file read/write failed
    Internal,                   ///< unexpected but recoverable
    DeadlineExceeded,           ///< wall-clock deadline tripped
    WatchdogTripped,            ///< simulator exceeded its cycle bound
};

/** Printable name of an error code ("schedule-budget-exhausted"). */
const char *errorCodeName(ErrorCode code);

/** Outcome of one recoverable operation. */
class Status
{
  public:
    /** Default: success. */
    Status() = default;

    static Status success() { return Status(); }

    /** A failure originating in `stage` (e.g. "lir-parse",
     *  "modsched"). */
    static Status
    error(ErrorCode code, std::string stage, std::string message)
    {
        Status s;
        s.code_ = code == ErrorCode::Ok ? ErrorCode::Internal : code;
        s.stage_ = std::move(stage);
        s.message_ = std::move(message);
        return s;
    }

    bool ok() const { return code_ == ErrorCode::Ok; }
    explicit operator bool() const { return ok(); }

    ErrorCode code() const { return code_; }
    const std::string &stage() const { return stage_; }
    const std::string &message() const { return message_; }

    /** "[stage] code: message", or "ok". */
    std::string str() const;

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string stage_;
    std::string message_;
};

} // namespace selvec

#endif // SELVEC_SUPPORT_STATUS_HH
