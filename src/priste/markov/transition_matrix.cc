#include "priste/markov/transition_matrix.h"

#include <cmath>
#include <cstring>

#include "priste/common/strings.h"
#include "priste/linalg/kernels.h"

namespace priste::markov {

TransitionMatrix::TransitionMatrix(linalg::Matrix m, bool allow_sparse)
    : matrix_(std::move(m)) {
  if (!allow_sparse || matrix_.rows() < kSparseMinStates) return;
  size_t nnz = 0;
  for (size_t r = 0; r < matrix_.rows(); ++r) {
    const double* row = matrix_.RowPtr(r);
    for (size_t c = 0; c < matrix_.cols(); ++c) {
      if (row[c] != 0.0) ++nnz;
    }
  }
  const double density = static_cast<double>(nnz) /
                         static_cast<double>(matrix_.rows() * matrix_.cols());
  if (density <= kSparseDensityThreshold) {
    sparse_ = std::make_shared<const linalg::SparseMatrix>(
        linalg::SparseMatrix::FromDense(matrix_));
  }
}

Result<TransitionMatrix> TransitionMatrix::Create(linalg::Matrix m, double tol,
                                                  bool allow_sparse) {
  if (m.rows() == 0 || m.rows() != m.cols()) {
    return err::InvalidArgument("TransitionMatrix must be square and non-empty");
  }
  for (size_t r = 0; r < m.rows(); ++r) {
    // Clamp within-tolerance negatives to zero BEFORE computing the
    // normalization sum, so rows with tiny negative entries renormalize to
    // exactly 1 instead of 1/(1 − |negatives|).
    double sum = 0.0;
    for (size_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m(r, c))) {
        return err::InvalidArgument(
            StrFormat("TransitionMatrix entry (%zu,%zu)=%g is not finite", r, c,
                      m(r, c)));
      }
      if (m(r, c) < -tol) {
        return err::InvalidArgument(
            StrFormat("TransitionMatrix entry (%zu,%zu)=%g is negative", r, c, m(r, c)));
      }
      if (m(r, c) < 0.0) m(r, c) = 0.0;
      sum += m(r, c);
    }
    if (std::fabs(sum - 1.0) > tol) {
      return err::InvalidArgument(
          StrFormat("TransitionMatrix row %zu sums to %g, expected 1", r, sum));
    }
    // Exact renormalization keeps long products stochastic.
    for (size_t c = 0; c < m.cols(); ++c) m(r, c) /= sum;
  }
  return TransitionMatrix(std::move(m), allow_sparse);
}

TransitionMatrix TransitionMatrix::Uniform(size_t num_states) {
  PRISTE_CHECK(num_states > 0);
  return TransitionMatrix(
      linalg::Matrix(num_states, num_states, 1.0 / static_cast<double>(num_states)));
}

TransitionMatrix TransitionMatrix::Identity(size_t num_states) {
  PRISTE_CHECK(num_states > 0);
  return TransitionMatrix(linalg::Matrix::Identity(num_states));
}

void TransitionMatrix::PropagateSpan(const double* p, double* out) const {
  if (sparse_ != nullptr) {
    sparse_->VecMatSpan(p, out);
    return;
  }
  const size_t m = num_states();
  std::memset(out, 0, m * sizeof(double));
  for (size_t r = 0; r < m; ++r) {
    const double scale = p[r];
    if (scale == 0.0) continue;
    linalg::kernels::Axpy(scale, matrix_.RowPtr(r), out, m);
  }
}

void TransitionMatrix::BackwardSpan(const double* v, double* out) const {
  BackwardSpans(&v, &out, 1);
}

void TransitionMatrix::BackwardSpans(const double* const* in,
                                     double* const* out, size_t count) const {
  // DotRows only DCHECKs the count, and its paths disagree outside it.
  PRISTE_CHECK(count >= 1 && count <= linalg::kernels::kDotRowsMaxVectors);
  const size_t m = num_states();
  // Each output depends only on its own input, so bit-equal inputs get one
  // product, copied to the others' outputs.
  constexpr size_t kMax = linalg::kernels::kDotRowsMaxVectors;
  const double* distinct_in[kMax];
  double* distinct_out[kMax];
  size_t source[kMax];
  size_t distinct = 0;
  for (size_t j = 0; j < count; ++j) {
    size_t k = 0;
    while (k < distinct &&
           std::memcmp(distinct_in[k], in[j], m * sizeof(double)) != 0) {
      ++k;
    }
    if (k == distinct) {
      distinct_in[k] = in[j];
      distinct_out[k] = out[j];
      ++distinct;
    }
    source[j] = k;
  }
  if (sparse_ != nullptr) {
    for (size_t k = 0; k < distinct; ++k) {
      sparse_->MatVecSpan(distinct_in[k], distinct_out[k]);
    }
  } else {
    linalg::kernels::DotRows(matrix_.RowPtr(0), m, m, distinct_in, distinct, m,
                             distinct_out);
  }
  for (size_t j = 0; j < count; ++j) {
    if (distinct_out[source[j]] != out[j]) {
      std::memcpy(out[j], distinct_out[source[j]], m * sizeof(double));
    }
  }
}

void TransitionMatrix::PropagateInto(const linalg::Vector& p,
                                     linalg::Vector& out) const {
  PRISTE_CHECK(p.size() == num_states() && out.size() == num_states());
  PRISTE_DCHECK(p.data() != out.data());
  PropagateSpan(p.data(), out.data());
}

void TransitionMatrix::PropagateHadamardInto(const linalg::Vector& p,
                                             const linalg::Vector& h,
                                             linalg::Vector& out) const {
  if (sparse_ != nullptr) {
    sparse_->VecMatHadamardInto(p, h, out);
    return;
  }
  PropagateInto(p, out);
  out.HadamardInPlace(h);
}

void TransitionMatrix::BackwardHadamardInto(const linalg::Vector& h,
                                            const linalg::Vector& v,
                                            linalg::Vector& out) const {
  if (sparse_ != nullptr) {
    sparse_->MatVecHadamardInto(h, v, out);
    return;
  }
  PRISTE_CHECK(v.size() == num_states() && h.size() == num_states() &&
               out.size() == num_states());
  PRISTE_DCHECK(v.data() != out.data());
  const size_t m = num_states();
  const double* hp = h.data();
  const double* vp = v.data();
  double* o = out.data();
  for (size_t r = 0; r < m; ++r) {
    o[r] = linalg::kernels::DotHadamard(matrix_.RowPtr(r), hp, vp, m);
  }
}

linalg::Vector TransitionMatrix::Propagate(const linalg::Vector& p) const {
  linalg::Vector out(num_states());
  PropagateInto(p, out);
  return out;
}

linalg::Vector TransitionMatrix::PropagateSteps(const linalg::Vector& p, int steps) const {
  PRISTE_CHECK(steps >= 0);
  if (steps == 0) return p;
  linalg::Vector cur = p;
  linalg::Vector next(num_states());
  for (int i = 0; i < steps; ++i) {
    PropagateInto(cur, next);
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace priste::markov
