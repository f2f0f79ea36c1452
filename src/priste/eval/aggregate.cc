#include "priste/eval/aggregate.h"

#include <algorithm>
#include <cmath>

#include "priste/common/check.h"

namespace priste::eval {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::stddev() const {
  if (count_ < 2) return 0.0;
  // Floating-point cancellation can drive m2_ infinitesimally negative on
  // near-constant series (even Welford's update only guarantees m2_ >= 0 in
  // exact arithmetic); sqrt of that would be NaN.
  return std::sqrt(std::max(m2_, 0.0) / static_cast<double>(count_ - 1));
}

void SeriesStats::AddSeries(const std::vector<double>& series) {
  if (stats_.empty()) {
    stats_.resize(series.size());
  }
  PRISTE_CHECK_MSG(series.size() == stats_.size(),
                   "series length mismatch in SeriesStats");
  for (size_t i = 0; i < series.size(); ++i) stats_[i].Add(series[i]);
}

}  // namespace priste::eval
