#ifndef PRISTE_LINALG_VECTOR_H_
#define PRISTE_LINALG_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "priste/common/check.h"

namespace priste::linalg {

/// Dense double vector. The workhorse type for probability vectors p_t,
/// emission columns p̃_o, and the Theorem IV.1 vectors a, b, c.
class Vector {
 public:
  Vector() = default;

  /// A vector of `size` zeros.
  explicit Vector(size_t size) : data_(size, 0.0) {}

  /// A vector of `size` copies of `fill`.
  Vector(size_t size, double fill) : data_(size, fill) {}

  Vector(std::initializer_list<double> init) : data_(init) {}

  /// Adopts an existing buffer.
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  /// The all-zeros row vector `0` of the paper's notation.
  static Vector Zeros(size_t size) { return Vector(size); }

  /// The all-ones row vector `1` of the paper's notation.
  static Vector Ones(size_t size) { return Vector(size, 1.0); }

  /// e_i: 1 at `index`, 0 elsewhere.
  static Vector Unit(size_t size, size_t index);

  /// Uniform probability vector 1/size.
  static Vector UniformProbability(size_t size);

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](size_t i) const {
    PRISTE_DCHECK(i < data_.size());
    return data_[i];
  }
  double& operator[](size_t i) {
    PRISTE_DCHECK(i < data_.size());
    return data_[i];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }
  const std::vector<double>& as_std() const { return data_; }

  /// The contiguous storage as one span — the unit the linalg::kernels
  /// layer consumes, so call sites stop re-deriving data()/size() pairs.
  std::span<const double> span() const { return {data_.data(), data_.size()}; }
  std::span<double> span() { return {data_.data(), data_.size()}; }

  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  /// Sum of entries.
  double Sum() const;

  /// Dot product. Sizes must match.
  double Dot(const Vector& other) const;

  /// Entry-wise (Hadamard) product `this ∘ other`. Sizes must match.
  Vector Hadamard(const Vector& other) const;

  /// In-place entry-wise product.
  void HadamardInPlace(const Vector& other);

  /// Returns `this * scalar`.
  Vector Scaled(double scalar) const;

  /// In-place scaling.
  void ScaleInPlace(double scalar);

  /// Entry-wise difference. Sizes must match.
  Vector Minus(const Vector& other) const;

  /// Max-norm.
  double MaxAbs() const;

  /// Index of the largest entry (first on ties). Requires non-empty.
  size_t ArgMax() const;

  /// Concatenation [this, other] — the paper's [π, 0] construction.
  Vector Concat(const Vector& other) const;

  /// True when all entries are within [lo, hi] (with `tol` slack); a NaN
  /// entry is not.
  bool AllInRange(double lo, double hi, double tol = 1e-12) const;

  /// "[v0, v1, ...]" with 6 significant digits.
  std::string ToString() const;

 private:
  std::vector<double> data_;
};

}  // namespace priste::linalg

#endif  // PRISTE_LINALG_VECTOR_H_
