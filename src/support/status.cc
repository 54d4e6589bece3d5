#include "support/status.hh"

namespace selvec
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Ok:                      return "ok";
      case ErrorCode::InvalidInput:            return "invalid-input";
      case ErrorCode::VerifyFailed:            return "verify-failed";
      case ErrorCode::ScheduleBudgetExhausted:
        return "schedule-budget-exhausted";
      case ErrorCode::PartitionFailed:         return "partition-failed";
      case ErrorCode::IoError:                 return "io-error";
      case ErrorCode::Internal:                return "internal";
      case ErrorCode::DeadlineExceeded:        return "deadline-exceeded";
      case ErrorCode::WatchdogTripped:         return "watchdog-tripped";
    }
    return "?";
}

std::string
Status::str() const
{
    if (ok())
        return "ok";
    std::string out = "[" + stage_ + "] " + errorCodeName(code_);
    if (!message_.empty())
        out += ": " + message_;
    return out;
}

} // namespace selvec
