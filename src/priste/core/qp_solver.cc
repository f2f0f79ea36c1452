#include "priste/core/qp_solver.h"

#include <limits>
#include <vector>

#include "priste/common/check.h"
#include "priste/common/metrics.h"
#include "priste/common/thread_annotations.h"

namespace priste::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Process-wide solver accounting (read via `priste_cli --metrics` and the
// experiment summaries). Observability only — never read back into the
// search, so determinism is untouched.
void RecordQpMetrics(bool timed_out) {
  static Counter& calls = MetricsRegistry::Global().GetCounter("qp.maximizations");
  static Counter& timeouts = MetricsRegistry::Global().GetCounter("qp.timeouts");
  calls.Increment();
  if (timed_out) timeouts.Increment();
}

// The point t·e_i + (1 − t)·e_j of the enumerated coordinates and its
// objective value; i == j with t = 1 is the vertex e_i.
struct EdgePoint {
  size_t i = 0;
  size_t j = 0;
  double t = 1.0;
  double value = -kInf;
};

// Raises *best to the highest interior edge peak among the edges (i, j),
// j > i. Convex and linear edges peak at a vertex, which the caller has
// already scanned.
PRISTE_HOT_PATH void ScanEdges(const double* a, const double* d,
                               const double* l, size_t i, size_t n,
                               EdgePoint* best) {
  const double ai = a[i];
  const double di = d[i];
  const double li = l[i];
  for (size_t j = i + 1; j < n; ++j) {
    const double da = ai - a[j];
    const double dd = di - d[j];
    const double dl = li - l[j];
    // q(t) = A·t² + B·t + C along the edge, with weight t on e_i. A concave
    // edge (A < 0) peaks inside (0, 1) iff t* = −B/(2A) does, i.e.
    // 0 < B < −2A.
    const double curvature = da * dd;
    const double slope = a[j] * dd + d[j] * da + dl;
    if (!(curvature < 0.0 && slope > 0.0 && slope < -2.0 * curvature)) continue;
    const double t = slope / (-2.0 * curvature);
    const double value = (a[j] + t * da) * (d[j] + t * dd) + (l[j] + t * dl);
    if (value > best->value) *best = {i, j, t, value};
  }
}

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
  // returns a feasible incumbent.
  EdgePoint best;
  for (size_t r = 0; r < k; ++r) {
    const double value = a[r] * d[r] + l[r];
    if (value > best.value) best = {r, r, 1.0, value};
  }
  Result result;
  for (size_t i = 0; i < k; ++i) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    ScanEdges(a.data(), d.data(), l.data(), i, k, &best);
  }

  result.argmax = linalg::Vector(n);
  result.argmax[index[best.j]] = 1.0 - best.t;
  result.argmax[index[best.i]] = best.t;
  result.max_value = objective.Evaluate(result.argmax);
  RecordQpMetrics(result.timed_out);
  return result;
}

}  // namespace priste::core
