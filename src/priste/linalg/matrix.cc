#include "priste/linalg/matrix.h"

#include <algorithm>
#include <cmath>

#include "priste/common/strings.h"

namespace priste::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() == 0 ? 0 : rows.begin()->size()) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    PRISTE_CHECK_MSG(row.size() == cols_, "ragged initializer_list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Vector Matrix::Row(size_t r) const {
  PRISTE_CHECK(r < rows_);
  Vector out(cols_);
  std::copy(RowPtr(r), RowPtr(r) + cols_, out.data());
  return out;
}

Vector Matrix::Col(size_t c) const {
  PRISTE_CHECK(c < cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::Minus(const Matrix& other) const {
  PRISTE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  PRISTE_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double best = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    best = std::max(best, std::fabs(data_[i] - other.data_[i]));
  }
  return best;
}

bool Matrix::IsRowStochastic(double tol) const {
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const double* row = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) {
      if (row[c] < -tol) return false;
      sum += row[c];
    }
    if (std::fabs(sum - 1.0) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString() const {
  std::vector<std::string> rows;
  rows.reserve(rows_);
  for (size_t r = 0; r < rows_; ++r) rows.push_back(Row(r).ToString());
  return "[" + StrJoin(rows, ",\n ") + "]";
}

}  // namespace priste::linalg
