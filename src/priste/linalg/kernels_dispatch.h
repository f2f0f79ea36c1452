#ifndef PRISTE_LINALG_KERNELS_DISPATCH_H_
#define PRISTE_LINALG_KERNELS_DISPATCH_H_

#include <cstddef>

// Internal dispatch table shared by kernels.cc (scalar path + dispatch
// plumbing), kernels_avx2.cc (the -mavx2 translation unit) and
// kernels_avx512.cc (the -mavx512f one). Not part of the public linalg
// surface — include priste/linalg/kernels.h instead.

namespace priste::linalg::kernels {

struct EdgePoint;  // kernels.h

struct KernelTable {
  double (*sum)(const double*, size_t);
  double (*dot)(const double*, const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*scale)(double*, double, size_t);
  void (*hadamard_in_place)(const double*, double*, size_t);
  void (*hadamard_into)(const double*, const double*, double*, size_t);
  double (*gather_dot)(const double*, const size_t*, size_t, const double*);
  void (*dot_rows)(const double*, size_t, size_t, const double* const*, size_t,
                   size_t, double* const*);
  double (*replicate_dot)(const double*, size_t, size_t, const double*);
  void (*replicate_dot_pair)(const double*, size_t, size_t, const double*,
                             const double*, double*, double*);
  void (*scan_edges)(const double*, const double*, const double*, size_t,
                     size_t, EdgePoint*);
};

#if defined(PRISTE_KERNELS_HAVE_AVX2)
/// The AVX2 implementations (defined in kernels_avx2.cc, compiled -mavx2).
/// Only call through this table after a runtime cpuid check.
const KernelTable& Avx2Table();

/// The AVX2 scan_edges body from j = first (i < first ≤ n): its four-wide
/// loop, then its scalar tail. The AVX-512 body hands over to it after its
/// eight-wide steps.
void Avx2ScanEdgesFrom(const double* a, const double* d, const double* l,
                       size_t i, size_t first, size_t n, EdgePoint* best);
#endif

#if defined(PRISTE_KERNELS_HAVE_AVX512)
/// The AVX2 table with dot_rows and scan_edges replaced by AVX-512 bodies
/// (defined in kernels_avx512.cc, compiled -mavx512f). Only call through
/// this table after a runtime check that the CPU and the OS support
/// AVX-512F.
const KernelTable& Avx512Table();
#endif

}  // namespace priste::linalg::kernels

#endif  // PRISTE_LINALG_KERNELS_DISPATCH_H_
