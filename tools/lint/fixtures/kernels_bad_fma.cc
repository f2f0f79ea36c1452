// Seeded-violation fixture for priste_lint --self-test. NOT compiled.
// Poses as src/priste/linalg/kernels_bad_fma.cc so the kernel-TU scope
// applies. Expected findings: 4x fma-pattern.
#include <cmath>
#include <immintrin.h>

double FusedDot(const double* a, const double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc = std::fma(a[i], b[i], acc);  // fma-pattern #1
  }
  return acc;
}

double FusedStep(double x, double m, double c) {
  return fma(x, m, c);  // fma-pattern #2: C fma()
}

__m256d FusedLanes(__m256d a, __m256d b, __m256d c) {
  return _mm256_fmadd_pd(a, b, c);  // fma-pattern #3: AVX2 FMA intrinsic
}

__m512d FusedPairs(__m512d a, __m512d b, __m512d c) {
  return _mm512_fmadd_pd(a, b, c);  // fma-pattern #4: AVX-512 FMA intrinsic
}

// std::fmax / fmax are NOT fma and must not fire:
double Clip(double x, double lo) { return std::fmax(x, lo); }
