// Seeded-good fixture for tools/lint/priste_lint.py --self-test: every
// pattern below is the sanctioned form of something the bad_* fixtures flag.
// Expected: ZERO findings.
#include <vector>

#define PRISTE_HOT_PATH __attribute__((annotate("priste_hot_path")))
#define PRISTE_NO_ABORT __attribute__((annotate("priste_no_abort")))

namespace fixture {

template <typename T>
struct Result {
  bool ok() const { return true; }
  bool has_value() const { return true; }
  T operator*() const { return T(); }
};

std::vector<double>& Scratch();

// Amortized thread_local scratch growth carries the existing lexical waiver;
// the transitive rule honors it in callees too.
double GrowWaived(std::vector<double>& v, double x) {
  // priste-lint: allow(hot-path-alloc) amortized thread_local scratch
  v.push_back(x);
  return v.back();
}

// A genuinely allocation-free helper.
double Accumulate(const double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return acc;
}

PRISTE_HOT_PATH double CleanKernel(const double* a, int n) {
  return Accumulate(a, n) + GrowWaived(Scratch(), 1.0);
}

// An edge waiver cuts a path the analysis cannot prove cold: the callee
// allocates only on a branch this caller never takes.
double MaybeGrow(std::vector<double>& v, double x, bool grow) {
  if (grow) v.push_back(x);
  return x;
}

PRISTE_HOT_PATH double EdgeWaivedKernel(const double* a, int n) {
  // priste-lint: allow(hot-path-alloc-transitive) grow=false on this path
  return MaybeGrow(Scratch(), Accumulate(a, n), false);
}

// No-abort entry whose callees return typed errors instead of CHECKing.
Result<void> ParseCell(const char* s, int* out) {
  if (s == nullptr) return Result<void>{};
  *out = *s - '0';
  return Result<void>{};
}

PRISTE_NO_ABORT Result<void> LoadRecord(const char* s, int* out) {
  Result<void> st = ParseCell(s, out);
  if (!st.ok()) return st;
  return Result<void>{};
}

// A Result read after checking has_value(), never through value().
PRISTE_NO_ABORT int ReadCount(const Result<int>& r) {
  return r.has_value() ? *r : 0;
}

}  // namespace fixture
