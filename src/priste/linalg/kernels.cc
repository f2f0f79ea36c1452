#include "priste/linalg/kernels.h"

#include "priste/common/thread_annotations.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "priste/common/metrics.h"
#include "priste/common/strings.h"
#include "priste/linalg/kernels_dispatch.h"

namespace priste::linalg::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar path. The small span kernels live inline in kernels.h (namespace
// detail) so short CSR rows can run them without an indirect call; the table
// points at those same functions, so the scalar dispatch path and the inline
// fast path share one body. Only the replicate kernels (never small — m is
// the grid size) have their scalar bodies here.
// ---------------------------------------------------------------------------

PRISTE_HOT_PATH double ScalarReplicateDot(const double* row, size_t blocks, size_t m,
                          const double* cand) {
  double total = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    total += detail::ScalarDot(row + q * m, cand, m);
  }
  return total;
}

PRISTE_HOT_PATH void ScalarReplicateDotPair(const double* row, size_t blocks, size_t m,
                            const double* cand, const double* seed,
                            double* seeded, double* plain) {
  double st = 0.0, pt = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    const double* r = row + q * m;
    const double* s = seed + q * m;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const double rc0 = r[j] * cand[j];
      const double rc1 = r[j + 1] * cand[j + 1];
      const double rc2 = r[j + 2] * cand[j + 2];
      const double rc3 = r[j + 3] * cand[j + 3];
      p0 += rc0;
      p1 += rc1;
      p2 += rc2;
      p3 += rc3;
      s0 += rc0 * s[j];
      s1 += rc1 * s[j + 1];
      s2 += rc2 * s[j + 2];
      s3 += rc3 * s[j + 3];
    }
    double sp = (s0 + s2) + (s1 + s3);
    double pp = (p0 + p2) + (p1 + p3);
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

constexpr KernelTable kScalarTable = {
    &detail::ScalarSum,
    &detail::ScalarDot,
    &detail::ScalarDotHadamard,
    &detail::ScalarAxpy,
    &detail::ScalarScale,
    &detail::ScalarHadamardInPlace,
    &detail::ScalarHadamardInto,
    &detail::ScalarGatherDot,
    &detail::ScalarDotRows,
    &ScalarReplicateDot,
    &ScalarReplicateDotPair,
    &detail::ScalarScanEdges,
};

// ---------------------------------------------------------------------------
// Dispatch. g_table is constant-initialized to the scalar table so kernel
// calls made before (or without) the dynamic initializer below are always
// valid; InitDispatch upgrades it once per process based on PRISTE_SIMD and
// cpuid. SetSimdLevelForTest re-points it for in-process comparisons.
// ---------------------------------------------------------------------------

const KernelTable* g_table = &kScalarTable;
SimdLevel g_level = SimdLevel::kScalar;
SimdLevel g_widest = SimdLevel::kScalar;

// libgcc's and compiler-rt's cpu model report AVX2 and AVX-512F only when
// the OS also saves the ymm and zmm register state (XGETBV), so a kernel
// without that support reads as a host without the feature. The AVX-512
// table runs AVX2 bodies for most entries, so it needs both features.
SimdLevel HostWidestLevel() {
#if defined(PRISTE_KERNELS_HAVE_AVX2) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") == 0) return SimdLevel::kScalar;
#if defined(PRISTE_KERNELS_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f") != 0) return SimdLevel::kAvx512;
#endif
  return SimdLevel::kAvx2;
#else
  return SimdLevel::kScalar;
#endif
}

// Selects `level`'s table, capped at the widest one available.
void Select(SimdLevel level) {
  g_level = std::min(level, g_widest);
  switch (g_level) {
#if defined(PRISTE_KERNELS_HAVE_AVX512)
    case SimdLevel::kAvx512:
      g_table = &Avx512Table();
      break;
#endif
#if defined(PRISTE_KERNELS_HAVE_AVX2)
    case SimdLevel::kAvx2:
      g_table = &Avx2Table();
      break;
#endif
    default:
      g_table = &kScalarTable;
  }
  MetricsRegistry::Global().GetGauge("simd.dispatch")
      .Set(static_cast<int>(g_level));
}

bool InitDispatch() {
  g_widest = HostWidestLevel();
  SimdLevel cap = SimdLevel::kAvx512;
  if (const char* env = std::getenv("PRISTE_SIMD"); env != nullptr) {
    int parsed = 0;
    if (ParseInt32(env, &parsed) && parsed >= 0 && parsed <= 2) {
      cap = static_cast<SimdLevel>(parsed);
    } else {
      std::fprintf(stderr,
                   "priste: ignoring invalid PRISTE_SIMD=\"%s\" "
                   "(want 0, 1 or 2)\n",
                   env);
    }
  }
  Select(cap);
  return true;
}

// Runs during static initialization of this TU; before it runs, g_table's
// constant initialization already points at the (correct) scalar table.
[[maybe_unused]] const bool g_dispatch_initialized = InitDispatch();

}  // namespace

namespace detail {

double DispatchSum(const double* x, size_t n) { return g_table->sum(x, n); }

double DispatchDot(const double* a, const double* b, size_t n) {
  return g_table->dot(a, b, n);
}

double DispatchDotHadamard(const double* a, const double* b, const double* c,
                           size_t n) {
  return g_table->dot_hadamard(a, b, c, n);
}

void DispatchAxpy(double alpha, const double* x, double* y, size_t n) {
  g_table->axpy(alpha, x, y, n);
}

void DispatchScale(double* x, double alpha, size_t n) {
  g_table->scale(x, alpha, n);
}

void DispatchHadamardInPlace(const double* x, double* y, size_t n) {
  g_table->hadamard_in_place(x, y, n);
}

void DispatchHadamardInto(const double* a, const double* b, double* out,
                          size_t n) {
  g_table->hadamard_into(a, b, out, n);
}

double DispatchGatherDot(const double* values, const size_t* cols, size_t nnz,
                         const double* x) {
  return g_table->gather_dot(values, cols, nnz, x);
}

void DispatchDotRows(const double* rows, size_t stride, size_t nrows,
                     const double* const* vs, size_t count, size_t n,
                     double* const* outs) {
  g_table->dot_rows(rows, stride, nrows, vs, count, n, outs);
}

void DispatchScanEdges(const double* a, const double* d, const double* l,
                       size_t i, size_t n, EdgePoint* best) {
  g_table->scan_edges(a, d, l, i, n, best);
}

}  // namespace detail

double ReplicateDot(const double* row, size_t blocks, size_t m,
                    const double* cand) {
  return g_table->replicate_dot(row, blocks, m, cand);
}

void ReplicateDotPair(const double* row, size_t blocks, size_t m,
                      const double* cand, const double* seed, double* seeded,
                      double* plain) {
  g_table->replicate_dot_pair(row, blocks, m, cand, seed, seeded, plain);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel ActiveSimdLevel() { return g_level; }

SimdLevel WidestSimdLevel() { return g_widest; }

SimdLevel SetSimdLevelForTest(SimdLevel level) {
  const SimdLevel was = g_level;
  Select(level);
  return was;
}

}  // namespace priste::linalg::kernels
