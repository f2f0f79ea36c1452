#include "priste/common/status.h"

namespace priste {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kInternal:
      return "internal";
  }
  return "unknown";
}

}  // namespace priste
