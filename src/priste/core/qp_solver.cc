#include "priste/core/qp_solver.h"

#include <vector>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/linalg/kernels.h"

namespace priste::core {
namespace {

// Process-wide solver accounting (read via `priste_cli --metrics` and the
// experiment summaries). Observability only — never read back into the
// search, so determinism is untouched.
void RecordQpMetrics(bool timed_out) {
  static Counter& calls = MetricsRegistry::Global().GetCounter("qp.maximizations");
  static Counter& timeouts = MetricsRegistry::Global().GetCounter("qp.timeouts");
  calls.Increment();
  if (timed_out) timeouts.Increment();
}

// Edges scanned between two reads of the deadline. A clock read costs about
// as much as 50 edges of the vectorized scan, so a read per row (n ≈ 400 at
// paper scale) would be a visible share of the check. An expired deadline
// is overshot by at most the time of 4096 + n edges: a few µs for Theorem
// objectives on the AVX2 path.
constexpr size_t kEdgesPerDeadlineCheck = 4096;

}  // namespace

QpSolver::Result QpSolver::Maximize(const Objective& objective,
                                    const Deadline& deadline) const {
  const size_t n = objective.a.size();
  PRISTE_CHECK(n > 0);
  PRISTE_CHECK(objective.d.size() == n && objective.l.size() == n);

  // The enumerated coordinates: every i with d_i ≠ 0 or l_i ≠ 0, plus the
  // smallest-a and the largest-a of the rest, gathered contiguously.
  std::vector<size_t> index;
  index.reserve(n);
  size_t lo = n;
  size_t hi = n;
  for (size_t i = 0; i < n; ++i) {
    if (objective.d[i] != 0.0 || objective.l[i] != 0.0) {
      index.push_back(i);
    } else {
      if (lo == n || objective.a[i] < objective.a[lo]) lo = i;
      if (hi == n || objective.a[i] > objective.a[hi]) hi = i;
    }
  }
  if (lo != n) index.push_back(lo);
  if (hi != lo) index.push_back(hi);
  const size_t k = index.size();
  std::vector<double> a(k);
  std::vector<double> d(k);
  std::vector<double> l(k);
  for (size_t r = 0; r < k; ++r) {
    a[r] = objective.a[index[r]];
    d[r] = objective.d[index[r]];
    l[r] = objective.l[index[r]];
  }

  // Vertices before the first deadline check, so even an expired deadline
  // returns a feasible incumbent. The edge rows follow, with the deadline
  // read before the first row and then once per kEdgesPerDeadlineCheck
  // scanned edges.
  linalg::kernels::EdgePoint best;
  for (size_t r = 0; r < k; ++r) {
    const double value = a[r] * d[r] + l[r];
    if (value > best.value) best = {r, r, 1.0, value};
  }
  Result result;
  // kernels::ScanEdges's preconditions, kept in Release builds: three spans
  // of k entries, and a row i < k (the loop bound).
  PRISTE_CHECK(a.size() == k && d.size() == k && l.size() == k);
  size_t unchecked_edges = kEdgesPerDeadlineCheck;
  for (size_t i = 0; i < k; ++i) {
    if (unchecked_edges >= kEdgesPerDeadlineCheck) {
      if (deadline.Expired()) {
        result.timed_out = true;
        break;
      }
      unchecked_edges = 0;
    }
    linalg::kernels::ScanEdges(a.data(), d.data(), l.data(), i, k, &best);
    unchecked_edges += k - 1 - i;
  }

  result.argmax = linalg::Vector(n);
  result.argmax[index[best.j]] = 1.0 - best.t;
  result.argmax[index[best.i]] = best.t;
  result.max_value = objective.Evaluate(result.argmax);
  RecordQpMetrics(result.timed_out);
  return result;
}

}  // namespace priste::core
