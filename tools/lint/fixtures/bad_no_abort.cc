// Seeded-bad fixture for tools/lint/priste_lint.py --self-test.
//
// PRISTE_NO_ABORT entry points must not reach a process abort on any path.
// Four violations:
//   ParseField   -> CheckedAt          reaches PRISTE_CHECK   (depth 1)
//   LoadRecord   -> ParseOrDie -> Die  reaches std::abort()   (depth 2)
//   HandleFlag                          throws directly        (depth 0)
//   ReadCount                           calls value()          (depth 0)
// PRISTE_DCHECK is permitted (NDEBUG serving builds compile it away): the
// DebugAt helper must NOT produce a finding.
// Expected: 4 no-abort-reachable findings.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#define PRISTE_NO_ABORT __attribute__((annotate("priste_no_abort")))
#define PRISTE_CHECK(cond) \
  do {                     \
    if (!(cond)) std::abort(); \
  } while (false)
#define PRISTE_DCHECK(cond) \
  do {                      \
  } while (false)

namespace fixture {

// Stands in for priste::Result<T> (std::expected): value() throws when the
// result holds an error.
template <typename T>
struct Result {
  bool has_value() const { return true; }
  const T& value() const { return v; }
  T v{};
};

int CheckedAt(const int* data, int i, int n) {
  PRISTE_CHECK(i >= 0 && i < n);
  return data[i];
}

int DebugAt(const int* data, int i, int n) {
  PRISTE_DCHECK(i >= 0 && i < n);
  return data[i];
}

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "%s\n", what);
  std::abort();
}

int ParseOrDie(const char* s) {
  if (s == nullptr) Die("null field");
  return *s - '0';
}

// Violation 1: reaches PRISTE_CHECK through CheckedAt.
PRISTE_NO_ABORT int ParseField(const int* data, int i, int n) {
  return CheckedAt(data, i, n);
}

// Clean control: DCHECK-only callee, no finding.
PRISTE_NO_ABORT int ParseFieldDebug(const int* data, int i, int n) {
  return DebugAt(data, i, n);
}

// Violation 2: reaches std::abort() two hops away.
PRISTE_NO_ABORT int LoadRecord(const char* s) { return ParseOrDie(s); }

// Violation 3: throws directly in the annotated body.
PRISTE_NO_ABORT int HandleFlag(int v) {
  if (v < 0) throw std::invalid_argument("negative flag");
  return v;
}

// Violation 4: value() on a Result throws std::bad_expected_access when it
// holds an error, and nothing on the serving boundary catches it.
PRISTE_NO_ABORT int ReadCount(const Result<int>& r) { return r.value(); }

}  // namespace fixture
