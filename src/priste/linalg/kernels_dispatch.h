#ifndef PRISTE_LINALG_KERNELS_DISPATCH_H_
#define PRISTE_LINALG_KERNELS_DISPATCH_H_

#include <cstddef>

// Internal dispatch table shared by kernels.cc (scalar path + dispatch
// plumbing) and kernels_avx2.cc (the -mavx2 translation unit). Not part of
// the public linalg surface — include priste/linalg/kernels.h instead.

namespace priste::linalg::kernels {

struct EdgePoint;  // kernels.h

struct KernelTable {
  double (*sum)(const double*, size_t);
  double (*dot)(const double*, const double*, size_t);
  double (*dot_hadamard)(const double*, const double*, const double*, size_t);
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
#endif

}  // namespace priste::linalg::kernels

#endif  // PRISTE_LINALG_KERNELS_DISPATCH_H_
