#ifndef PRISTE_COMMON_METRICS_H_
#define PRISTE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace priste {

/// A process-wide runtime-metrics registry: named lock-free counters, gauges,
/// and fixed-bucket latency histograms, in the style of a server's
/// `runtime_metrics` surface. The hot-path contract is strict — Increment /
/// Record are a handful of relaxed atomic ops, never a lock or an allocation —
/// so the emission cache, release engine, and QP solver can all publish
/// unconditionally. Registration (GetCounter etc.) takes a mutex and
/// may allocate; hot paths look a metric up once and keep the reference
/// (function-local static references are the intended idiom).
///
/// Metrics are observability only: nothing in the library reads them back
/// into a computation, so the bit-identical determinism story is untouched.

/// Monotonic event count. Increment is wait-free; value() is a relaxed load
/// (exact once the writers have quiesced, a live lower bound otherwise).
class Counter {
 public:
  void Increment(long n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<long> value_{0};
};

/// A settable level (cache bytes in use, live sessions). Add may go negative
/// transiently under concurrent release/insert; Set is a plain store.
class Gauge {
 public:
  void Set(long v) { value_.store(v, std::memory_order_relaxed); }
  void Add(long n) { value_.fetch_add(n, std::memory_order_relaxed); }
  long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<long> value_{0};
};

/// Fixed-bucket latency histogram over seconds. Buckets are powers of two of
/// a microsecond (bucket k counts samples in [2^k µs, 2^(k+1) µs), with an
/// underflow bucket below 1 µs and an overflow bucket at ≥ ~67 s), so Record
/// is a bit-scan plus one relaxed fetch_add — no floating-point log, no lock.
///
/// The sample count is DERIVED from the bucket array (count() sums it), so a
/// concurrent snapshot can never observe count != Σ buckets; only sum_seconds
/// is tracked separately and is therefore approximate while writers are live.
class Histogram {
 public:
  /// One underflow + 26 pow2 buckets + overflow.
  static constexpr size_t kNumBuckets = 28;

  void Record(double seconds);

  long count() const;
  double sum_seconds() const;
  long bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i in seconds (+inf for the overflow
  /// bucket).
  static double BucketUpperBound(size_t i);

  /// Smallest bucket upper bound covering at least `quantile` of the
  /// recorded samples (a standard bucketed-percentile estimate; returns 0
  /// when empty).
  double ApproxQuantile(double quantile) const;

 private:
  friend class MetricsRegistry;
  void ResetForTest();

  std::array<std::atomic<long>, kNumBuckets> buckets_{};
  /// Nanosecond total, so the sum is a single integer fetch_add (exact to
  /// 1 ns per sample, overflow-safe past 10^10 seconds of recorded latency).
  std::atomic<int64_t> sum_nanos_{0};
};

/// Name → metric directory. Metrics are created on first Get and live for the
/// process lifetime; returned references are stable. One global registry
/// (Global()) serves the whole library; tests may construct private ones.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Global();

  /// Finds or creates the named metric. A name belongs to exactly one metric
  /// kind; asking for an existing name as a different kind dies (it is a
  /// programming error, caught in every build mode).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  struct CounterSample {
    std::string name;
    long value = 0;
  };
  struct GaugeSample {
    std::string name;
    long value = 0;
  };
  struct HistogramSample {
    std::string name;
    long count = 0;
    double sum_seconds = 0.0;
    double p50_seconds = 0.0;
    double p99_seconds = 0.0;
  };
  struct Snapshot {
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
  };

  /// A point-in-time view, sorted by name. Safe against concurrent writers;
  /// each histogram's count is internally consistent with its buckets.
  Snapshot TakeSnapshot() const;

  /// Human-readable dump of TakeSnapshot() — the `priste_cli --metrics`
  /// output format:
  ///   counter  cache.emission.hits            12
  ///   gauge    cache.emission.bytes           524288
  ///   histogram release.check_seconds         count=90 sum=0.12s p50=1.3ms p99=4.2ms
  std::string Render() const;

  /// Zeroes every registered metric (names stay registered). Test isolation
  /// only — racing a reset against live writers loses increments by design.
  void ResetForTest();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace priste

#endif  // PRISTE_COMMON_METRICS_H_
