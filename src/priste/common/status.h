#ifndef PRISTE_COMMON_STATUS_H_
#define PRISTE_COMMON_STATUS_H_

#include <expected>
#include <ostream>
#include <string>
#include <utility>

namespace priste {

/// Canonical error codes, modelled after the subset of absl::StatusCode that a
/// numerical privacy library needs. Every fallible public API in PriSTE
/// returns a Result<T> (Result<void> when there is no value); exceptions are
/// not used.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kFailedPrecondition = 2,
  kOutOfRange = 3,
  kNotFound = 4,
  kResourceExhausted = 5,
  kInternal = 6,
};

/// Returns the canonical lowercase name of a code ("ok", "invalid_argument"…).
const char* StatusCodeToString(StatusCode code);

/// The error payload of Result<T>: a code plus a human-readable message. An
/// Error stored in a Result always denotes failure; kOk appears only in the
/// view Result::status() returns for a result holding a value.
struct Error {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  /// Renders "<code>: <message>" ("invalid_argument: bad lat field"), or
  /// just "<code>" when the message is empty.
  std::string ToString() const {
    std::string out = StatusCodeToString(code);
    if (!message.empty()) {
      out += ": ";
      out += message;
    }
    return out;
  }

  friend bool operator==(const Error& a, const Error& b) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Error& error) {
  return os << error.ToString();
}

/// Helpers producing an `std::unexpected<Error>` that implicitly converts to
/// any Result<T>:
///
///   Result<int> ParseInt(...) {
///     if (bad) return err::InvalidArgument("int field: " + token);
///     ...
///   }
namespace err {
// Named MakeUnexpected (not Make) deliberately: the call-graph analysis
// resolves calls by simple name, and a helper called Make would alias every
// factory Make in the tree, dragging their CHECKs into no-abort paths.
inline std::unexpected<Error> MakeUnexpected(StatusCode code,
                                             std::string msg) {
  return std::unexpected(Error{code, std::move(msg)});
}
inline std::unexpected<Error> InvalidArgument(std::string msg) {
  return MakeUnexpected(StatusCode::kInvalidArgument, std::move(msg));
}
inline std::unexpected<Error> FailedPrecondition(std::string msg) {
  return MakeUnexpected(StatusCode::kFailedPrecondition, std::move(msg));
}
inline std::unexpected<Error> OutOfRange(std::string msg) {
  return MakeUnexpected(StatusCode::kOutOfRange, std::move(msg));
}
inline std::unexpected<Error> NotFound(std::string msg) {
  return MakeUnexpected(StatusCode::kNotFound, std::move(msg));
}
inline std::unexpected<Error> ResourceExhausted(std::string msg) {
  return MakeUnexpected(StatusCode::kResourceExhausted, std::move(msg));
}
inline std::unexpected<Error> Internal(std::string msg) {
  return MakeUnexpected(StatusCode::kInternal, std::move(msg));
}
}  // namespace err

/// Either a value of type T or an Error, built on C++23 std::expected.
/// Result<void> is the value-less form: `return {};` on success. Accessing
/// the value of an error Result via value() throws
/// std::bad_expected_access<Error> (std::expected's contract), which nothing
/// on the serving boundary catches; code annotated PRISTE_NO_ABORT must use
/// PRISTE_TRY / has_value() instead.
///
/// ok() and status() are shorthand for has_value() and a never-throwing view
/// of the error.
template <typename T>
class [[nodiscard]] Result : public std::expected<T, Error> {
  using base = std::expected<T, Error>;

 public:
  using base::base;

  bool ok() const { return this->has_value(); }

  /// The error, or Error{StatusCode::kOk, ""} (rendering "ok") when the
  /// result holds a value.
  Error status() const {
    return this->has_value() ? Error{StatusCode::kOk, ""} : this->error();
  }
};

}  // namespace priste

#define PRISTE_STATUS_CONCAT_(a, b) PRISTE_STATUS_CONCAT_IMPL_(a, b)
#define PRISTE_STATUS_CONCAT_IMPL_(a, b) a##b

/// Evaluates `rexpr` (a Result<T> expression); on success moves the value
/// into `lhs`, otherwise propagates the Error from the enclosing function.
/// The enclosing function may return Result<U> for any U — the
/// std::unexpected<Error> converts.
#define PRISTE_TRY(lhs, rexpr)                                     \
  PRISTE_TRY_IMPL_(PRISTE_STATUS_CONCAT_(priste_result_, __LINE__), \
                   lhs, rexpr)

#define PRISTE_TRY_IMPL_(result, lhs, rexpr)                        \
  auto result = (rexpr);                                            \
  if (!result.has_value())                                          \
    return ::std::unexpected(::std::move(result).error());          \
  lhs = *::std::move(result)

/// Evaluates `expr` (a Result<T> expression whose value is not needed, such
/// as a Result<void> validator); propagates the Error from the enclosing
/// function on failure.
#define PRISTE_TRY_VOID(expr)                                       \
  do {                                                              \
    auto priste_result_tmp_ = (expr);                               \
    if (!priste_result_tmp_.has_value())                            \
      return ::std::unexpected(::std::move(priste_result_tmp_).error()); \
  } while (false)

#endif  // PRISTE_COMMON_STATUS_H_
