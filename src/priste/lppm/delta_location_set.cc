#include "priste/lppm/delta_location_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "priste/common/check.h"
#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"

namespace priste::lppm {

PRISTE_NO_ABORT
Result<void> ValidateDelta(double delta) {
  if (!(delta >= 0.0 && delta < 1.0)) {  // negated so that NaN fails too
    return err::InvalidArgument("delta must be in [0, 1)");
  }
  return {};
}

Result<geo::Region> DeltaLocationSet(const linalg::Vector& prior, double delta) {
  PRISTE_TRY_VOID(ValidateDelta(delta));
  if (prior.empty()) return err::InvalidArgument("empty prior");
  // Negated so that a NaN entry or sum fails (the sort below needs no NaN).
  if (!prior.AllInRange(0.0, 1.0) || !(std::fabs(prior.Sum() - 1.0) <= 1e-6)) {
    return err::InvalidArgument("prior is not a probability vector");
  }

  std::vector<size_t> order(prior.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&prior](size_t a, size_t b) { return prior[a] > prior[b]; });

  geo::Region set(prior.size());
  double mass = 0.0;
  for (size_t idx : order) {
    set.Add(static_cast<int>(idx));
    mass += prior[idx];
    if (mass >= 1.0 - delta - 1e-12) break;
  }
  return set;
}

namespace {

// The offset classes of one axis: entry (a, b) of the returned n×n table
// indexes |centres[a] − centres[b]| in `offsets`, the ascending list of the
// distinct values.
std::vector<size_t> OffsetClasses(const std::vector<double>& centres,
                                  std::vector<double>& offsets) {
  const size_t n = centres.size();
  std::vector<double> pairs(n * n);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      pairs[a * n + b] = std::fabs(centres[a] - centres[b]);
    }
  }
  offsets = pairs;
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  std::vector<size_t> classes(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    classes[i] = static_cast<size_t>(
        std::lower_bound(offsets.begin(), offsets.end(), pairs[i]) -
        offsets.begin());
  }
  return classes;
}

}  // namespace

DeltaRestrictedPlanarLaplace::DeltaRestrictedPlanarLaplace(const geo::Grid& grid,
                                                           double alpha,
                                                           geo::Region location_set)
    : grid_(grid), alpha_(alpha), location_set_(std::move(location_set)) {
  PRISTE_CHECK_OK(ValidateBudget(alpha_));
  PRISTE_CHECK_MSG(location_set_.num_states() == grid_.num_cells(),
                   "location set must span the grid's cells");
  members_ = location_set_.States();
  PRISTE_CHECK_MSG(!members_.empty(), "delta-location set must be non-empty");

  const size_t width = static_cast<size_t>(grid_.width());
  const size_t height = static_cast<size_t>(grid_.height());
  const size_t m = grid_.num_cells();
  const size_t n = members_.size();

  // geo::Distance squares the coordinate differences, so a cell-centre
  // distance depends only on (|Δx|, |Δy|): the per-axis offset classes key
  // every distance the dense build would compute, bit for bit.
  std::vector<double> xs(width);
  std::vector<double> ys(height);
  for (size_t c = 0; c < width; ++c) {
    xs[c] = grid_.CenterOf(grid_.CellOf(static_cast<int>(c), 0)).x;
  }
  for (size_t r = 0; r < height; ++r) {
    ys[r] = grid_.CenterOf(grid_.CellOf(0, static_cast<int>(r))).y;
  }
  std::vector<double> x_offsets;
  std::vector<double> y_offsets;
  col_class_ = OffsetClasses(xs, x_offsets);
  row_class_ = OffsetClasses(ys, y_offsets);
  num_row_classes_ = y_offsets.size();
  std::vector<double> distances(x_offsets.size() * num_row_classes_);
  weights_.resize(distances.size());
  for (size_t cx = 0; cx < x_offsets.size(); ++cx) {
    for (size_t cy = 0; cy < num_row_classes_; ++cy) {
      const double d = geo::Distance(geo::PointKm{x_offsets[cx], y_offsets[cy]},
                                     geo::PointKm{});
      distances[cx * num_row_classes_ + cy] = d;
      weights_[cx * num_row_classes_ + cy] =
          alpha_ <= 0.0 ? 1.0 : std::exp(-alpha_ * d);
    }
  }

  member_col_.resize(n);
  member_row_.resize(n);
  anchor_.assign(m, n);
  for (size_t k = 0; k < n; ++k) {
    member_col_[k] = static_cast<size_t>(grid_.ColOf(members_[k]));
    member_row_[k] = static_cast<size_t>(grid_.RowOf(members_[k]));
    anchor_[static_cast<size_t>(members_[k])] = k;
  }
  // A cell outside ΔX is anchored at its first nearest member.
  for (size_t i = 0; i < m; ++i) {
    if (anchor_[i] != n) continue;
    const int cell = static_cast<int>(i);
    const size_t* cols = &col_class_[static_cast<size_t>(grid_.ColOf(cell)) * width];
    const size_t* rows = &row_class_[static_cast<size_t>(grid_.RowOf(cell)) * height];
    double best = std::numeric_limits<double>::infinity();
    size_t best_k = 0;
    for (size_t k = 0; k < n; ++k) {
      const double d = distances[cols[member_col_[k]] * num_row_classes_ +
                                 rows[member_row_[k]]];
      if (d < best) {
        best = d;
        best_k = k;
      }
    }
    anchor_[i] = best_k;
  }

  row_sum_.resize(n);
  row_norm_.resize(n);
  std::vector<double> row(n);
  for (size_t k = 0; k < n; ++k) {
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      row[j] = Weight(k, j);
      sum += row[j];
    }
    double norm = 0.0;
    for (size_t j = 0; j < n; ++j) norm += row[j] / sum;
    // EmissionMatrix::Create's row test, once per distinct row.
    PRISTE_CHECK_MSG(std::fabs(norm - 1.0) <= 1e-6, "restricted emission invalid");
    row_sum_[k] = sum;
    row_norm_[k] = norm;
  }
}

double DeltaRestrictedPlanarLaplace::Weight(size_t k, size_t j) const {
  const size_t cx =
      col_class_[member_col_[k] * static_cast<size_t>(grid_.width()) + member_col_[j]];
  const size_t cy =
      row_class_[member_row_[k] * static_cast<size_t>(grid_.height()) + member_row_[j]];
  return weights_[cx * num_row_classes_ + cy];
}

const hmm::EmissionMatrix& DeltaRestrictedPlanarLaplace::emission() const {
  std::call_once(emission_once_, [this] {
    // The dense build's matrix before Create: w/Z on the members. Create
    // sums each row to Z₂ and divides, which is what Entry computes.
    const size_t m = num_states();
    linalg::Matrix e(m, m);
    for (size_t i = 0; i < m; ++i) {
      const size_t k = anchor_[i];
      for (size_t j = 0; j < members_.size(); ++j) {
        e(i, static_cast<size_t>(members_[j])) = Weight(k, j) / row_sum_[k];
      }
    }
    auto result = hmm::EmissionMatrix::Create(std::move(e));
    PRISTE_CHECK_MSG(result.ok(), "restricted emission invalid");
    emission_.emplace(std::move(result).value());
  });
  return *emission_;
}

int DeltaRestrictedPlanarLaplace::Perturb(int true_cell, Rng& rng) const {
  PRISTE_CHECK(grid_.ContainsCell(true_cell));
  // The full row's zeros outside ΔX change neither SampleDiscrete's total,
  // its running target nor its fallback, so the member entries suffice.
  const size_t k = anchor_[static_cast<size_t>(true_cell)];
  std::vector<double> row(members_.size());
  for (size_t j = 0; j < row.size(); ++j) row[j] = Entry(k, j);
  return members_[static_cast<size_t>(rng.SampleDiscrete(row))];
}

linalg::Vector DeltaRestrictedPlanarLaplace::EmissionColumn(int o) const {
  PRISTE_CHECK(grid_.ContainsCell(o));
  linalg::Vector column(num_states());
  const size_t j = anchor_[static_cast<size_t>(o)];
  if (members_[j] != o) return column;  // no cell releases o ∉ ΔX
  for (size_t i = 0; i < column.size(); ++i) column[i] = Entry(anchor_[i], j);
  return column;
}

std::string DeltaRestrictedPlanarLaplace::name() const {
  return StrFormat("%s-PLM within |dX|=%zu", FormatDouble(alpha_).c_str(),
                   location_set_.Count());
}

}  // namespace priste::lppm
