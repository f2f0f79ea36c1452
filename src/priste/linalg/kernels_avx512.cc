// AVX-512 kernel path. This translation unit is compiled with -mavx512f and
// only linked into the dispatch table behind a runtime check that the CPU
// and the OS support AVX-512F (kernels.cc), so no AVX-512 instruction
// executes on a host without it.
//
// The table is the AVX2 one with two entries replaced: DotRows over two to
// four vectors and ScanEdges. Every other kernel keeps its AVX2 body: the
// reductions cannot widen to eight lanes without changing their summation
// order, and a one-vector DotRows pass, bound by streaming its rows from L2,
// is no faster with wider registers (README, "Vectorized kernel substrate").
//
// Bit-identity contract (see kernels.h): each zmm accumulator carries two of
// the AVX2 path's 4-lane accumulators side by side, so every lane sees the
// AVX2 path's products in the AVX2 path's order, and each 256-bit half goes
// through the same (lane0+lane2)+(lane1+lane3) reduction and the same
// sequential tail. Multiplies and adds stay separate (no FMA), and
// -ffp-contract=off keeps the compiler from fusing them.

#include "priste/linalg/kernels_dispatch.h"
#include "priste/common/thread_annotations.h"
// For EdgePoint only. As in kernels_avx2.cc, this TU never calls kernels.h's
// inline scalar bodies: an out-of-line copy compiled here with -mavx512f
// could be the one the linker keeps for every caller.
#include "priste/linalg/kernels.h"

#if defined(PRISTE_KERNELS_HAVE_AVX512)

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

// GCC 12's unmasked insert, broadcast and extract intrinsics (and the
// 512-to-256 cast, an extract) pass an uninitialized _mm512_undefined_pd()
// through, which -Wuninitialized reports once they are inlined. Their
// zero-masked forms under a full mask compute the same and compile to the
// same unmasked instructions.
constexpr __mmask8 kAllLanes = 0xFF;

// x's chunk in the low half, y's in the high half.
inline __m512d PairChunks(const double* x, const double* y) {
  return _mm512_maskz_insertf64x4(
      kAllLanes, _mm512_castpd256_pd512(_mm256_loadu_pd(x)),
      _mm256_loadu_pd(y), 1);
}

inline __m512d BroadcastChunk(__m256d a) {
  return _mm512_maskz_broadcast_f64x4(kAllLanes, a);
}

inline __m256d LowHalf(__m512d x) {
  return _mm512_maskz_extractf64x4_pd(kAllLanes, x, 0);
}

inline __m256d HighHalf(__m512d x) {
  return _mm512_maskz_extractf64x4_pd(kAllLanes, x, 1);
}

// One R-row block of DotRows over C = 2, 3 or 4 vectors, rows r0..r0+R−1.
// Vectors 2k and 2k+1 share one zmm register — 2k's chunk in the low half,
// 2k+1's in the high half — and each row chunk is broadcast to both halves,
// so pair[r][k] holds the AVX2 path's accumulators for (row r, vector 2k)
// and (row r, vector 2k+1) side by side, fed the same products in the same
// order. An odd last vector keeps a ymm accumulator. Each half is reduced
// and finished with the sequential tail exactly as the AVX2 path finishes
// its accumulator.
template <size_t R, size_t C>
PRISTE_HOT_PATH inline void Avx512DotBlock(const double* rows, size_t stride,
                                           size_t r0, const double* const* vs,
                                           size_t n, double* const* outs) {
  constexpr size_t kPairs = C / 2;
  constexpr bool kOdd = C % 2 == 1;
  const double* row[R];
  const double* v[C];
  __m512d pair[R][kPairs];
  [[maybe_unused]] __m256d odd[R];
  for (size_t r = 0; r < R; ++r) row[r] = rows + (r0 + r) * stride;
  for (size_t j = 0; j < C; ++j) v[j] = vs[j];
  for (size_t r = 0; r < R; ++r) {
    for (size_t k = 0; k < kPairs; ++k) pair[r][k] = _mm512_setzero_pd();
    if constexpr (kOdd) odd[r] = _mm256_setzero_pd();
  }
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m512d x[kPairs];
    for (size_t k = 0; k < kPairs; ++k) {
      x[k] = PairChunks(v[2 * k] + i, v[2 * k + 1] + i);
    }
    [[maybe_unused]] __m256d x_odd;
    if constexpr (kOdd) x_odd = _mm256_loadu_pd(v[C - 1] + i);
    for (size_t r = 0; r < R; ++r) {
      const __m256d a = _mm256_loadu_pd(row[r] + i);
      const __m512d aa = BroadcastChunk(a);
      for (size_t k = 0; k < kPairs; ++k) {
        pair[r][k] = _mm512_add_pd(pair[r][k], _mm512_mul_pd(aa, x[k]));
      }
      if constexpr (kOdd) {
        odd[r] = _mm256_add_pd(odd[r], _mm256_mul_pd(a, x_odd));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < C; ++j) {
      __m256d acc;
      if (j / 2 == kPairs) {
        acc = odd[r];
      } else if (j % 2 == 0) {
        acc = LowHalf(pair[r][j / 2]);
      } else {
        acc = HighHalf(pair[r][j / 2]);
      }
      double total = ReduceLanes(acc);
      for (size_t k = i; k < n; ++k) total += row[r][k] * v[j][k];
      outs[j][r0 + r] = total;
    }
  }
}

// Full R-row blocks, then the leftover rows one at a time.
template <size_t R, size_t C>
PRISTE_HOT_PATH void Avx512DotRowsBlocked(const double* rows, size_t stride,
                                          size_t nrows,
                                          const double* const* vs, size_t n,
                                          double* const* outs) {
  size_t r = 0;
  for (; r + R <= nrows; r += R) {
    Avx512DotBlock<R, C>(rows, stride, r, vs, n, outs);
  }
  for (; r < nrows; ++r) Avx512DotBlock<1, C>(rows, stride, r, vs, n, outs);
}

// Block shapes keep the accumulators, the vector chunks and a broadcast row
// chunk within the 32 zmm registers: 8 rows for two vectors (8 pair
// accumulators), 6 rows for three (6 pair + 6 ymm) and four (12 pair). One
// vector stays on the AVX2 body: that pass is bound by streaming the rows
// from L2, which wider registers do not speed up.
PRISTE_HOT_PATH void Avx512DotRows(const double* rows, size_t stride,
                                   size_t nrows, const double* const* vs,
                                   size_t count, size_t n,
                                   double* const* outs) {
  switch (count) {
    case 1:
      return Avx2Table().dot_rows(rows, stride, nrows, vs, count, n, outs);
    case 2:
      return Avx512DotRowsBlocked<8, 2>(rows, stride, nrows, vs, n, outs);
    case 3:
      return Avx512DotRowsBlocked<6, 3>(rows, stride, nrows, vs, n, outs);
    default:
      return Avx512DotRowsBlocked<6, 4>(rows, stride, nrows, vs, n, outs);
  }
}

// ScanEdges eight j per step, then the AVX2 body's four-wide loop and scalar
// tail on what is left. Each lane runs the scalar body's operations in its
// order (no FMA; ordered compares, so a NaN fails the peak test just as it
// fails `!(…)` there). A group divides only when some lane passes the test,
// and offers its passing lanes to *best in ascending j with the scalar
// body's strict `>`: the group's largest value wins, ties to the smallest j,
// exactly where the sequential scan ends up.
PRISTE_HOT_PATH void Avx512ScanEdges(const double* a, const double* d,
                                     const double* l, size_t i, size_t n,
                                     EdgePoint* best) {
  const __m512d vai = _mm512_set1_pd(a[i]);
  const __m512d vdi = _mm512_set1_pd(d[i]);
  const __m512d vli = _mm512_set1_pd(l[i]);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d minus_two = _mm512_set1_pd(-2.0);
  size_t j = i + 1;
  for (; j + 8 <= n; j += 8) {
    const __m512d aj = _mm512_loadu_pd(a + j);
    const __m512d dj = _mm512_loadu_pd(d + j);
    const __m512d lj = _mm512_loadu_pd(l + j);
    const __m512d da = _mm512_sub_pd(vai, aj);
    const __m512d dd = _mm512_sub_pd(vdi, dj);
    const __m512d dl = _mm512_sub_pd(vli, lj);
    const __m512d curvature = _mm512_mul_pd(da, dd);
    const __m512d slope = _mm512_add_pd(
        _mm512_add_pd(_mm512_mul_pd(aj, dd), _mm512_mul_pd(dj, da)), dl);
    const __m512d minus_two_curvature = _mm512_mul_pd(minus_two, curvature);
    __mmask8 peaks = _mm512_cmp_pd_mask(curvature, zero, _CMP_LT_OQ);
    peaks = _mm512_mask_cmp_pd_mask(peaks, slope, zero, _CMP_GT_OQ);
    peaks = _mm512_mask_cmp_pd_mask(peaks, slope, minus_two_curvature,
                                    _CMP_LT_OQ);
    if (peaks == 0) continue;
    const __m512d t = _mm512_div_pd(slope, minus_two_curvature);
    const __m512d value = _mm512_add_pd(
        _mm512_mul_pd(_mm512_add_pd(aj, _mm512_mul_pd(t, da)),
                      _mm512_add_pd(dj, _mm512_mul_pd(t, dd))),
        _mm512_add_pd(lj, _mm512_mul_pd(t, dl)));
    alignas(64) double ts[8];
    alignas(64) double values[8];
    _mm512_store_pd(ts, t);
    _mm512_store_pd(values, value);
    for (unsigned lanes = peaks; lanes != 0; lanes &= lanes - 1) {
      const unsigned k = static_cast<unsigned>(__builtin_ctz(lanes));
      if (values[k] > best->value) *best = {i, j + k, ts[k], values[k]};
    }
  }
  Avx2ScanEdgesFrom(a, d, l, i, j, n, best);
}

}  // namespace

const KernelTable& Avx512Table() {
  static const KernelTable table = [] {
    KernelTable t = Avx2Table();
    t.dot_rows = &Avx512DotRows;
    t.scan_edges = &Avx512ScanEdges;
    return t;
  }();
  return table;
}

}  // namespace priste::linalg::kernels

#endif  // PRISTE_KERNELS_HAVE_AVX512
