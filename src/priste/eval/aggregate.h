#ifndef PRISTE_EVAL_AGGREGATE_H_
#define PRISTE_EVAL_AGGREGATE_H_

#include <cstddef>
#include <vector>

namespace priste::eval {

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample standard deviation (n−1); 0 for fewer than two samples.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Per-index statistics over same-length series (e.g. per-timestamp budgets
/// across repeated runs).
class SeriesStats {
 public:
  /// All added series must share one length.
  void AddSeries(const std::vector<double>& series);

  size_t length() const { return stats_.size(); }
  const RunningStats& At(size_t i) const { return stats_.at(i); }

 private:
  std::vector<RunningStats> stats_;
};

}  // namespace priste::eval

#endif  // PRISTE_EVAL_AGGREGATE_H_
