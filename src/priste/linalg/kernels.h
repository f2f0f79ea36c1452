#ifndef PRISTE_LINALG_KERNELS_H_
#define PRISTE_LINALG_KERNELS_H_

#include <cstddef>
#include <limits>

#include "priste/common/check.h"
#include "priste/common/thread_annotations.h"

namespace priste::linalg::kernels {

/// Hand-vectorized span kernels with runtime dispatch. Every kernel below
/// runs through one of three tables selected once at startup via cpuid —
/// a portable scalar table, an AVX2 table and an AVX-512 table — and all
/// three produce BIT-IDENTICAL results: reductions use fixed-width
/// accumulator blocking (four independent accumulators, lane j summing
/// elements j, j+4, j+8, …), a fixed reduction order (acc0+acc2)+(acc1+acc3),
/// and a sequential tail added after the reduction. The SIMD tables multiply
/// and add separately (no FMA), so the rounding of every intermediate
/// matches the scalar path exactly. This is what keeps the cached-vs-cold
/// equivalence suites and the cross-build determinism story intact
/// regardless of which path a host selects.
///
/// The AVX-512 table is the AVX2 table with two entries replaced. DotRows
/// over two to four vectors pairs them: each zmm register carries two of
/// the AVX2 path's 4-lane accumulators — two vectors against one row chunk
/// broadcast to both halves — and each 256-bit half is reduced and finished
/// exactly as on the AVX2 path, so no 8-lane reduction ever changes a
/// rounding. ScanEdges takes eight j per step. One-vector DotRows and every
/// other kernel keep their AVX2 bodies.
///
/// Short spans skip the dispatch table entirely: below kInlineThreshold (and
/// kGatherInlineThreshold for the gather) the public entry points run the
/// inline scalar body in the caller's frame, because an indirect call per
/// ~9-nnz CSR row costs more than the row itself and SIMD is not profitable
/// at those lengths anyway. Every dispatch mode shares that inline path, and
/// the table paths are bit-identical to it by construction, so results never
/// depend on dispatch mode at any size.
///
/// Dispatch is capped by the PRISTE_SIMD environment variable: 0 selects
/// the scalar table, 1 at most AVX2, 2 at most AVX-512; unset selects the
/// widest table the CPU and the OS support, and anything else warns and
/// keeps that default. The active table is published as the
/// `simd.dispatch` gauge (0 = scalar, 1 = AVX2, 2 = AVX-512).
///
/// Aliasing contract: output spans must not overlap any input span (checked
/// with PRISTE_DCHECK in debug builds at the call sites that take both).

/// The point t·e_i + (1 − t)·e_j of the probability simplex and the value
/// of f(π) = (π·a)(π·d) + π·l there; i == j with t = 1 is the vertex e_i.
/// ScanEdges raises one of these.
struct EdgePoint {
  size_t i = 0;
  size_t j = 0;
  double t = 1.0;
  double value = -std::numeric_limits<double>::infinity();
};

namespace detail {

/// Below these lengths the inline scalar body beats an indirect table call.
/// Gathers get a higher cutoff: AVX2 vpgatherqq has enough latency that the
/// scalar loop wins well past where contiguous loads break even.
inline constexpr size_t kInlineThreshold = 16;
inline constexpr size_t kGatherInlineThreshold = 32;

// Scalar bodies, shared verbatim by the inline small-n fast path and the
// scalar dispatch table (kernels.cc points the table at these same
// functions, so there is a single source of truth for the FP semantics).
// Reductions mirror the AVX2 lane structure exactly; a vectorizing compiler
// may map the accumulators onto lanes, but without -ffast-math it must
// preserve these exact FP semantics.

PRISTE_HOT_PATH inline double ScalarSum(const double* x, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += x[i];
    a1 += x[i + 1];
    a2 += x[i + 2];
    a3 += x[i + 3];
  }
  double total = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) total += x[i];
  return total;
}

PRISTE_HOT_PATH inline double ScalarDot(const double* a, const double* b, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += a[i] * b[i];
    a1 += a[i + 1] * b[i + 1];
    a2 += a[i + 2] * b[i + 2];
    a3 += a[i + 3] * b[i + 3];
  }
  double total = (a0 + a2) + (a1 + a3);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

PRISTE_HOT_PATH inline void ScalarAxpy(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

PRISTE_HOT_PATH inline void ScalarScale(double* x, double alpha, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

PRISTE_HOT_PATH inline void ScalarHadamardInPlace(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= x[i];
}

PRISTE_HOT_PATH inline void ScalarHadamardInto(const double* a, const double* b, double* out,
                               size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

PRISTE_HOT_PATH inline double ScalarGatherDot(const double* values, const size_t* cols,
                              size_t nnz, const double* x) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= nnz; k += 4) {
    a0 += values[k] * x[cols[k]];
    a1 += values[k + 1] * x[cols[k + 1]];
    a2 += values[k + 2] * x[cols[k + 2]];
    a3 += values[k + 3] * x[cols[k + 3]];
  }
  double total = (a0 + a2) + (a1 + a3);
  for (; k < nnz; ++k) total += values[k] * x[cols[k]];
  return total;
}

PRISTE_HOT_PATH inline void ScalarDotRows(const double* rows, size_t stride,
                                          size_t nrows, const double* const* vs,
                                          size_t count, size_t n,
                                          double* const* outs) {
  for (size_t r = 0; r < nrows; ++r) {
    const double* row = rows + r * stride;
    for (size_t j = 0; j < count; ++j) outs[j][r] = ScalarDot(row, vs[j], n);
  }
}

// Raises *best to the highest interior edge peak among the edges (i, j),
// j > i. Convex and linear edges peak at a vertex, which the caller has
// already scanned.
PRISTE_HOT_PATH inline void ScalarScanEdges(const double* a, const double* d,
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

// Out-of-line entry points that read the dispatch table (kernels.cc).
double DispatchSum(const double* x, size_t n);
double DispatchDot(const double* a, const double* b, size_t n);
void DispatchAxpy(double alpha, const double* x, double* y, size_t n);
void DispatchScale(double* x, double alpha, size_t n);
void DispatchHadamardInPlace(const double* x, double* y, size_t n);
void DispatchHadamardInto(const double* a, const double* b, double* out,
                          size_t n);
double DispatchGatherDot(const double* values, const size_t* cols, size_t nnz,
                         const double* x);
void DispatchDotRows(const double* rows, size_t stride, size_t nrows,
                     const double* const* vs, size_t count, size_t n,
                     double* const* outs);
void DispatchScanEdges(const double* a, const double* d, const double* l,
                       size_t i, size_t n, EdgePoint* best);

}  // namespace detail

/// Σ x[i].
PRISTE_HOT_PATH inline double Sum(const double* x, size_t n) {
  if (n < detail::kInlineThreshold) return detail::ScalarSum(x, n);
  return detail::DispatchSum(x, n);
}

/// Σ a[i]·b[i].
PRISTE_HOT_PATH inline double Dot(const double* a, const double* b, size_t n) {
  if (n < detail::kInlineThreshold) return detail::ScalarDot(a, b, n);
  return detail::DispatchDot(a, b, n);
}

/// Most vectors one DotRows call takes.
inline constexpr size_t kDotRowsMaxVectors = 4;

/// outs[j][r] = Dot(rows + r·stride, vs[j], n) for every r < nrows and
/// j < count, 1 ≤ count ≤ kDotRowsMaxVectors: up to four matrix-vector
/// products over one pass through the rows. The AVX2 path register-blocks
/// rows × vectors (4×1, 4×2, 2×3 and 2×4 accumulators), and the AVX-512 path
/// pairs two vectors per zmm register (8×2, 6×3 and 6×4), which changes only
/// which accumulators share the registers: each output keeps Dot's four
/// lanes, its (l0+l2)+(l1+l3) reduction and its sequential tail, so every
/// outs[j][r] is bit-equal to the per-row Dot on every path. No output may
/// overlap `rows` or any vs[k].
PRISTE_HOT_PATH inline void DotRows(const double* rows, size_t stride,
                                    size_t nrows, const double* const* vs,
                                    size_t count, size_t n,
                                    double* const* outs) {
  PRISTE_DCHECK(count >= 1 && count <= kDotRowsMaxVectors);
  if (n < detail::kInlineThreshold) {
    return detail::ScalarDotRows(rows, stride, nrows, vs, count, n, outs);
  }
  detail::DispatchDotRows(rows, stride, nrows, vs, count, n, outs);
}

/// Row i of the exact QP's edge enumeration (core::QpSolver::Maximize):
/// for every j with i < j < n, the peak of f(π) = (π·a)(π·d) + π·l along
/// the simplex edge from e_j to e_i, when that edge is concave and peaks
/// strictly inside it, replaces *best if its value is strictly greater.
/// i < n, and a, d, l each hold n entries. The AVX2 path evaluates four j
/// per step, and the AVX-512 path eight before the AVX2 path's four-wide
/// loop and tail, with the scalar body's operations in the same order: no FMA,
/// ordered compares (a NaN fails the peak test, as `!(…)` makes it fail in
/// the scalar body), a division only in groups where some lane passes, and
/// the passing lanes offered to *best in ascending j with the same strict
/// `>` — so a group yields its largest value, ties to the smallest j, and
/// every path picks the same edge, t and value bit for bit. Rows shorter than
/// kInlineThreshold run the scalar body inline.
PRISTE_HOT_PATH inline void ScanEdges(const double* a, const double* d,
                                      const double* l, size_t i, size_t n,
                                      EdgePoint* best) {
  PRISTE_DCHECK(i < n);
  if (n - i - 1 < detail::kInlineThreshold) {
    return detail::ScalarScanEdges(a, d, l, i, n, best);
  }
  detail::DispatchScanEdges(a, d, l, i, n, best);
}

/// y[i] += alpha·x[i].
PRISTE_HOT_PATH inline void Axpy(double alpha, const double* x, double* y, size_t n) {
  if (n < detail::kInlineThreshold) return detail::ScalarAxpy(alpha, x, y, n);
  detail::DispatchAxpy(alpha, x, y, n);
}

/// x[i] *= alpha.
PRISTE_HOT_PATH inline void Scale(double* x, double alpha, size_t n) {
  if (n < detail::kInlineThreshold) return detail::ScalarScale(x, alpha, n);
  detail::DispatchScale(x, alpha, n);
}

/// y[i] *= x[i].
PRISTE_HOT_PATH inline void HadamardInPlace(const double* x, double* y, size_t n) {
  if (n < detail::kInlineThreshold) {
    return detail::ScalarHadamardInPlace(x, y, n);
  }
  detail::DispatchHadamardInPlace(x, y, n);
}

/// out[i] = a[i]·b[i].
PRISTE_HOT_PATH inline void HadamardInto(const double* a, const double* b, double* out,
                         size_t n) {
  if (n < detail::kInlineThreshold) {
    return detail::ScalarHadamardInto(a, b, out, n);
  }
  detail::DispatchHadamardInto(a, b, out, n);
}

/// Σ_k values[k]·x[cols[k]] — one CSR row of MatVecSpan.
PRISTE_HOT_PATH inline double GatherDot(const double* values, const size_t* cols, size_t nnz,
                        const double* x) {
  if (nnz < detail::kGatherInlineThreshold) {
    return detail::ScalarGatherDot(values, cols, nnz, x);
  }
  return detail::DispatchGatherDot(values, cols, nnz, x);
}

/// out[cols[k]] += s·values[k] — one CSR row of VecMatSpan. Columns within a
/// row are unique, so the scatter has no accumulation-order ambiguity. Always
/// the inline loop: AVX2 has no scatter instruction and the AVX-512 table
/// keeps the AVX2 bodies, so there is no wide path to dispatch to and the
/// adds are sequential either way.
PRISTE_HOT_PATH inline void ScatterAxpy(double s, const double* values, const size_t* cols,
                        size_t nnz, double* out) {
  for (size_t k = 0; k < nnz; ++k) out[cols[k]] += s * values[k];
}

/// Blocked replicate-and-dot over a lifted row of `blocks`·`m` entries laid
/// out contiguously: treats `cand` (length m) as replicated across the
/// blocks without materializing the replication.
///   ReplicateDot     = Σ_q Σ_j row[q·m+j]·cand[j]
///   ReplicateDotPair additionally returns Σ_q Σ_j row[q·m+j]·cand[j]·seed[q·m+j]
/// Per-block partial sums are reduced independently and added in block order,
/// identically on every path. Always dispatched: blocks·m is large by
/// construction (m is the grid size).
PRISTE_HOT_PATH double ReplicateDot(const double* row, size_t blocks,
                                    size_t m, const double* cand);
PRISTE_HOT_PATH void ReplicateDotPair(const double* row, size_t blocks,
                                      size_t m, const double* cand,
                                      const double* seed, double* seeded,
                                      double* plain);

/// The dispatch tables, narrowest first; the values are PRISTE_SIMD's and
/// the `simd.dispatch` gauge's.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar", "avx2" or "avx512".
const char* SimdLevelName(SimdLevel level);

/// The active dispatch table.
SimdLevel ActiveSimdLevel();

/// The widest table this build has and this host can run.
SimdLevel WidestSimdLevel();

/// Re-points the dispatch table at `level`, capped at WidestSimdLevel()
/// (test and bench hook for in-process comparisons between tables).
/// Returns the previous level. Not thread-safe against concurrent kernel
/// calls.
SimdLevel SetSimdLevelForTest(SimdLevel level);

}  // namespace priste::linalg::kernels

#endif  // PRISTE_LINALG_KERNELS_H_
