#include "priste/common/status.h"

#include <cstdio>
#include <cstdlib>

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

void CheckOkFailed(const char* file, int line, const char* expr,
                   const Error& error) {
  std::fprintf(stderr, "PRISTE_CHECK failed at %s:%d: %s (%s)\n", file, line,
               expr, error.ToString().c_str());
  std::abort();
}

}  // namespace priste
