#include "priste/hmm/emission_model.h"

#include <cmath>
#include <vector>

#include "priste/common/strings.h"

namespace priste::hmm {

namespace {

// Each row's sum in column order. Fails on an empty matrix, on an entry that
// is not finite or lies below `min_entry`, and on a row whose sum is off 1 by
// more than `tol`.
Result<std::vector<double>> RowSums(const linalg::Matrix& e, double tol,
                                    double min_entry) {
  if (e.rows() == 0 || e.cols() == 0) {
    return err::InvalidArgument("EmissionMatrix must be non-empty");
  }
  std::vector<double> sums(e.rows());
  for (size_t r = 0; r < e.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < e.cols(); ++c) {
      if (!std::isfinite(e(r, c))) {
        return err::InvalidArgument(
            StrFormat("EmissionMatrix entry (%zu,%zu)=%g is not finite", r, c,
                      e(r, c)));
      }
      if (e(r, c) < min_entry) {
        return err::InvalidArgument(
            StrFormat("EmissionMatrix entry (%zu,%zu)=%g is negative", r, c, e(r, c)));
      }
      sum += e(r, c);
    }
    if (std::fabs(sum - 1.0) > tol) {
      return err::InvalidArgument(
          StrFormat("EmissionMatrix row %zu sums to %g, expected 1", r, sum));
    }
    sums[r] = sum;
  }
  return sums;
}

}  // namespace

Result<EmissionMatrix> EmissionMatrix::Create(linalg::Matrix e, double tol) {
  PRISTE_TRY(const std::vector<double> sums, RowSums(e, tol, -tol));
  for (size_t r = 0; r < e.rows(); ++r) {
    for (size_t c = 0; c < e.cols(); ++c) {
      e(r, c) = e(r, c) < 0.0 ? 0.0 : e(r, c) / sums[r];
    }
  }
  return EmissionMatrix(std::move(e));
}

Result<EmissionMatrix> EmissionMatrix::CreateNormalized(linalg::Matrix e,
                                                        double tol) {
  PRISTE_TRY_VOID(RowSums(e, tol, 0.0));
  return EmissionMatrix(std::move(e));
}

EmissionMatrix EmissionMatrix::Identity(size_t num_states) {
  return EmissionMatrix(linalg::Matrix::Identity(num_states));
}

EmissionMatrix EmissionMatrix::Uniform(size_t num_states, size_t num_outputs) {
  PRISTE_CHECK(num_states > 0 && num_outputs > 0);
  return EmissionMatrix(
      linalg::Matrix(num_states, num_outputs, 1.0 / static_cast<double>(num_outputs)));
}

linalg::Vector EmissionMatrix::EmissionColumn(int output) const {
  PRISTE_CHECK(output >= 0 && static_cast<size_t>(output) < num_outputs());
  return matrix_.Col(static_cast<size_t>(output));
}

linalg::Vector EmissionMatrix::OutputDistribution(int state) const {
  PRISTE_CHECK(state >= 0 && static_cast<size_t>(state) < num_states());
  return matrix_.Row(static_cast<size_t>(state));
}

}  // namespace priste::hmm
