// AVX2 kernel path. This translation unit is compiled with -mavx2 and only
// linked into the dispatch table behind a runtime cpuid check (kernels.cc),
// so no AVX2 instruction executes on a host without the feature.
//
// Bit-identity contract with the scalar path (see kernels.h): four-lane
// accumulators where lane j sums elements j, j+4, j+8, …; reduction order
// (lane0+lane2)+(lane1+lane3); sequential tail after the reduction; separate
// multiply and add (no _mm256_fmadd_pd — FMA's single rounding would diverge
// from the scalar a*b+c).

#include "priste/linalg/kernels_dispatch.h"
#include "priste/common/thread_annotations.h"
// For EdgePoint only. This TU never calls kernels.h's inline scalar bodies:
// an out-of-line copy compiled here with -mavx2 could be the one the linker
// keeps for every caller, so the scalar tails below are spelled out instead.
#include "priste/linalg/kernels.h"

#if defined(PRISTE_KERNELS_HAVE_AVX2)

#include <immintrin.h>

namespace priste::linalg::kernels {
namespace {

// Reduces lanes as (l0+l2)+(l1+l3) — the scalar accumulator order.
inline double ReduceLanes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // l0, l1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // l2, l3
  const __m128d s = _mm_add_pd(lo, hi);               // l0+l2, l1+l3
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

PRISTE_HOT_PATH double Avx2Sum(const double* x, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = ReduceLanes(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

PRISTE_HOT_PATH double Avx2Dot(const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double total = ReduceLanes(acc);
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

PRISTE_HOT_PATH void Avx2Axpy(double alpha, const double* x, double* y, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

PRISTE_HOT_PATH void Avx2Scale(double* x, double alpha, size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

PRISTE_HOT_PATH void Avx2HadamardInPlace(const double* x, double* y, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_mul_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

PRISTE_HOT_PATH void Avx2HadamardInto(const double* a, const double* b, double* out,
                      size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

PRISTE_HOT_PATH double Avx2GatherDot(const double* values, const size_t* cols, size_t nnz,
                     const double* x) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= nnz; k += 4) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cols + k));
    const __m256d gathered = _mm256_i64gather_pd(x, idx, 8);
    acc = _mm256_add_pd(acc,
                        _mm256_mul_pd(_mm256_loadu_pd(values + k), gathered));
  }
  double total = ReduceLanes(acc);
  for (; k < nnz; ++k) total += values[k] * x[cols[k]];
  return total;
}

// One R-row × C-vector register block of DotRows, rows r0..r0+R−1.
// acc[r][j] is Avx2Dot's accumulator for (row r, vector j), fed the same
// products in the same order, and each output is reduced and finished with
// the sequential tail exactly as Avx2Dot finishes its one — so blocking
// shares the loads without changing a single rounding.
template <size_t R, size_t C>
PRISTE_HOT_PATH inline void Avx2DotBlock(const double* rows, size_t stride,
                                         size_t r0, const double* const* vs,
                                         size_t n, double* const* outs) {
  const double* row[R];
  const double* v[C];
  __m256d acc[R][C];
  for (size_t r = 0; r < R; ++r) row[r] = rows + (r0 + r) * stride;
  for (size_t j = 0; j < C; ++j) v[j] = vs[j];
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) acc[r][j] = _mm256_setzero_pd();
  }
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x[C];
    for (size_t j = 0; j < C; ++j) x[j] = _mm256_loadu_pd(v[j] + i);
    for (size_t r = 0; r < R; ++r) {
      const __m256d a = _mm256_loadu_pd(row[r] + i);
      for (size_t j = 0; j < C; ++j) {
        acc[r][j] = _mm256_add_pd(acc[r][j], _mm256_mul_pd(a, x[j]));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) {
      double total = ReduceLanes(acc[r][j]);
      for (size_t k = i; k < n; ++k) total += row[r][k] * v[j][k];
      outs[j][r0 + r] = total;
    }
  }
}

// Full R-row blocks, then the leftover rows one at a time.
template <size_t R, size_t C>
PRISTE_HOT_PATH void Avx2DotRowsBlocked(const double* rows, size_t stride,
                                        size_t nrows, const double* const* vs,
                                        size_t n, double* const* outs) {
  size_t r = 0;
  for (; r + R <= nrows; r += R) {
    Avx2DotBlock<R, C>(rows, stride, r, vs, n, outs);
  }
  for (; r < nrows; ++r) Avx2DotBlock<1, C>(rows, stride, r, vs, n, outs);
}

// Block shapes keep acc + one row load + C vector loads within the 16 ymm
// registers: 4×1 and 4×2 for one or two vectors, 2×3 and 2×4 beyond.
PRISTE_HOT_PATH void Avx2DotRows(const double* rows, size_t stride,
                                 size_t nrows, const double* const* vs,
                                 size_t count, size_t n, double* const* outs) {
  switch (count) {
    case 1:
      return Avx2DotRowsBlocked<4, 1>(rows, stride, nrows, vs, n, outs);
    case 2:
      return Avx2DotRowsBlocked<4, 2>(rows, stride, nrows, vs, n, outs);
    case 3:
      return Avx2DotRowsBlocked<2, 3>(rows, stride, nrows, vs, n, outs);
    default:
      return Avx2DotRowsBlocked<2, 4>(rows, stride, nrows, vs, n, outs);
  }
}

PRISTE_HOT_PATH double Avx2ReplicateDot(const double* row, size_t blocks, size_t m,
                        const double* cand) {
  double total = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    total += Avx2Dot(row + q * m, cand, m);
  }
  return total;
}

PRISTE_HOT_PATH void Avx2ReplicateDotPair(const double* row, size_t blocks, size_t m,
                          const double* cand, const double* seed,
                          double* seeded, double* plain) {
  double st = 0.0, pt = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    const double* r = row + q * m;
    const double* s = seed + q * m;
    __m256d sacc = _mm256_setzero_pd();
    __m256d pacc = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d rc =
          _mm256_mul_pd(_mm256_loadu_pd(r + j), _mm256_loadu_pd(cand + j));
      pacc = _mm256_add_pd(pacc, rc);
      sacc = _mm256_add_pd(sacc, _mm256_mul_pd(rc, _mm256_loadu_pd(s + j)));
    }
    double sp = ReduceLanes(sacc);
    double pp = ReduceLanes(pacc);
    for (; j < m; ++j) {
      const double rc = r[j] * cand[j];
      pp += rc;
      sp += rc * s[j];
    }
    st += sp;
    pt += pp;
  }
  *seeded = st;
  *plain = pt;
}

PRISTE_HOT_PATH void Avx2ScanEdges(const double* a, const double* d,
                                   const double* l, size_t i, size_t n,
                                   EdgePoint* best) {
  Avx2ScanEdgesFrom(a, d, l, i, i + 1, n, best);
}

constexpr KernelTable kAvx2Table = {
    &Avx2Sum,
    &Avx2Dot,
    &Avx2Axpy,
    &Avx2Scale,
    &Avx2HadamardInPlace,
    &Avx2HadamardInto,
    &Avx2GatherDot,
    &Avx2DotRows,
    &Avx2ReplicateDot,
    &Avx2ReplicateDotPair,
    &Avx2ScanEdges,
};

}  // namespace

const KernelTable& Avx2Table() { return kAvx2Table; }

// ScanEdges four j per step. Each lane runs the scalar body's operations in
// its order (no FMA; ordered compares, so a NaN fails the peak test just as
// it fails `!(…)` there). A group divides only when some lane passes the
// test, and offers its passing lanes to *best in ascending j with the
// scalar body's strict `>`: the group's largest value wins, ties to the
// smallest j, exactly where the sequential scan ends up. The scalar tail
// follows.
PRISTE_HOT_PATH void Avx2ScanEdgesFrom(const double* a, const double* d,
                                       const double* l, size_t i,
                                       size_t first, size_t n,
                                       EdgePoint* best) {
  const double ai = a[i];
  const double di = d[i];
  const double li = l[i];
  const __m256d vai = _mm256_set1_pd(ai);
  const __m256d vdi = _mm256_set1_pd(di);
  const __m256d vli = _mm256_set1_pd(li);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  size_t j = first;
  for (; j + 4 <= n; j += 4) {
    const __m256d aj = _mm256_loadu_pd(a + j);
    const __m256d dj = _mm256_loadu_pd(d + j);
    const __m256d lj = _mm256_loadu_pd(l + j);
    const __m256d da = _mm256_sub_pd(vai, aj);
    const __m256d dd = _mm256_sub_pd(vdi, dj);
    const __m256d dl = _mm256_sub_pd(vli, lj);
    const __m256d curvature = _mm256_mul_pd(da, dd);
    const __m256d slope = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(aj, dd), _mm256_mul_pd(dj, da)), dl);
    const __m256d minus_two_curvature = _mm256_mul_pd(minus_two, curvature);
    const int peaks = _mm256_movemask_pd(_mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(curvature, zero, _CMP_LT_OQ),
                      _mm256_cmp_pd(slope, zero, _CMP_GT_OQ)),
        _mm256_cmp_pd(slope, minus_two_curvature, _CMP_LT_OQ)));
    if (peaks == 0) continue;
    const __m256d t = _mm256_div_pd(slope, minus_two_curvature);
    const __m256d value = _mm256_add_pd(
        _mm256_mul_pd(_mm256_add_pd(aj, _mm256_mul_pd(t, da)),
                      _mm256_add_pd(dj, _mm256_mul_pd(t, dd))),
        _mm256_add_pd(lj, _mm256_mul_pd(t, dl)));
    alignas(32) double ts[4];
    alignas(32) double values[4];
    _mm256_store_pd(ts, t);
    _mm256_store_pd(values, value);
    for (size_t k = 0; k < 4; ++k) {
      if (((peaks >> k) & 1) != 0 && values[k] > best->value) {
        *best = {i, j + k, ts[k], values[k]};
      }
    }
  }
  for (; j < n; ++j) {
    const double da = ai - a[j];
    const double dd = di - d[j];
    const double dl = li - l[j];
    const double curvature = da * dd;
    const double slope = a[j] * dd + d[j] * da + dl;
    if (!(curvature < 0.0 && slope > 0.0 && slope < -2.0 * curvature)) continue;
    const double t = slope / (-2.0 * curvature);
    const double value = (a[j] + t * da) * (d[j] + t * dd) + (l[j] + t * dl);
    if (value > best->value) *best = {i, j, t, value};
  }
}

}  // namespace priste::linalg::kernels

#endif  // PRISTE_KERNELS_HAVE_AVX2
