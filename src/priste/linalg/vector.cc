#include "priste/linalg/vector.h"

#include <algorithm>
#include <cmath>

#include "priste/common/strings.h"
#include "priste/linalg/kernels.h"

namespace priste::linalg {

Vector Vector::Unit(size_t size, size_t index) {
  PRISTE_CHECK(index < size);
  Vector v(size);
  v[index] = 1.0;
  return v;
}

Vector Vector::UniformProbability(size_t size) {
  PRISTE_CHECK(size > 0);
  return Vector(size, 1.0 / static_cast<double>(size));
}

double Vector::Sum() const { return kernels::Sum(data_.data(), data_.size()); }

double Vector::Dot(const Vector& other) const {
  PRISTE_CHECK(size() == other.size());
  return kernels::Dot(data_.data(), other.data_.data(), data_.size());
}

Vector Vector::Hadamard(const Vector& other) const {
  Vector out = *this;
  out.HadamardInPlace(other);
  return out;
}

void Vector::HadamardInPlace(const Vector& other) {
  PRISTE_CHECK(size() == other.size());
  kernels::HadamardInPlace(other.data_.data(), data_.data(), data_.size());
}

Vector Vector::Scaled(double scalar) const {
  Vector out = *this;
  out.ScaleInPlace(scalar);
  return out;
}

void Vector::ScaleInPlace(double scalar) {
  kernels::Scale(data_.data(), scalar, data_.size());
}

Vector Vector::Minus(const Vector& other) const {
  PRISTE_CHECK(size() == other.size());
  Vector out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

double Vector::MaxAbs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

size_t Vector::ArgMax() const {
  PRISTE_CHECK(!data_.empty());
  return static_cast<size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

Vector Vector::Concat(const Vector& other) const {
  Vector out(size() + other.size());
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(other.data_.begin(), other.data_.end(),
            out.data_.begin() + static_cast<ptrdiff_t>(size()));
  return out;
}

bool Vector::AllInRange(double lo, double hi, double tol) const {
  for (double x : data_) {
    if (!(x >= lo - tol && x <= hi + tol)) return false;  // NaN fails
  }
  return true;
}

std::string Vector::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(data_.size());
  for (double x : data_) parts.push_back(FormatDouble(x));
  return "[" + StrJoin(parts, ", ") + "]";
}

}  // namespace priste::linalg
