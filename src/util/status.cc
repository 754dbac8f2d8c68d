#include "src/util/status.h"

namespace tango {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kWritten:
      return "WRITTEN";
    case StatusCode::kUnwritten:
      return "UNWRITTEN";
    case StatusCode::kTrimmed:
      return "TRIMMED";
    case StatusCode::kJunk:
      return "JUNK";
    case StatusCode::kSealedEpoch:
      return "SEALED_EPOCH";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kBusy:
      return "BUSY";
    case StatusCode::kWouldBlock:
      return "WOULD_BLOCK";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace tango
