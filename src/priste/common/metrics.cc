#include "priste/common/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

#include "priste/common/check.h"
#include "priste/common/mutex.h"
#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"

namespace priste {

namespace {

// Bucket k (1 ≤ k ≤ 26) spans [2^(k−1) µs, 2^k µs); bucket 0 is < 1 µs and
// bucket 27 is everything at or beyond 2^26 µs ≈ 67 s.
constexpr int kPow2Buckets = static_cast<int>(Histogram::kNumBuckets) - 2;

size_t BucketFor(double seconds) {
  if (!(seconds > 0.0)) return 0;  // non-positive and NaN land in underflow
  const double micros = seconds * 1e6;
  if (micros < 1.0) return 0;
  const double top = std::ldexp(1.0, kPow2Buckets);  // 2^26 µs
  if (micros >= top) return Histogram::kNumBuckets - 1;
  // 1 ≤ ilogb(micros) + 1 ≤ kPow2Buckets for micros in [1, 2^26).
  return static_cast<size_t>(std::ilogb(micros)) + 1;
}

}  // namespace

void Histogram::Record(double seconds) {
  buckets_[BucketFor(seconds)].fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(seconds) && seconds > 0.0) {
    sum_nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
  }
}

long Histogram::count() const {
  long total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum_seconds() const {
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
}

double Histogram::BucketUpperBound(size_t i) {
  PRISTE_CHECK(i < kNumBuckets);
  if (i == kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i)) * 1e-6;  // 2^i µs
}

double Histogram::ApproxQuantile(double quantile) const {
  // One consistent pass: read the buckets once, derive the total from the
  // same reads.
  std::array<long, kNumBuckets> counts;
  long total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double target = std::clamp(quantile, 0.0, 1.0) * static_cast<double>(total);
  long seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target && counts[i] > 0) {
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(kNumBuckets - 1);
}

void Histogram::ResetForTest() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  // std::map keeps snapshots name-sorted for free; metrics are held by
  // unique_ptr so references survive rehashing-free and map growth alike.
  // The registration maps are mu-guarded (machine-checked); the metrics
  // themselves are lock-free and are written through the handed-out
  // references with no lock held — only the DIRECTORY is guarded.
  Mutex mu PRISTE_LOCK_LEVEL(40);
  std::map<std::string, std::unique_ptr<Counter>> counters
      PRISTE_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>> gauges PRISTE_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      PRISTE_GUARDED_BY(mu);

  bool NameTaken(const std::string& name) const PRISTE_REQUIRES(mu) {
    return counters.count(name) + gauges.count(name) + histograms.count(name) >
           0;
  }
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: metrics may still be published during static
  // destruction, after a function-local static registry would be gone.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&impl_->mu);
  auto it = impl_->counters.find(name);
  if (it == impl_->counters.end()) {
    PRISTE_CHECK_MSG(!impl_->NameTaken(name),
                     "metric name registered as a different kind");
    it = impl_->counters.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&impl_->mu);
  auto it = impl_->gauges.find(name);
  if (it == impl_->gauges.end()) {
    PRISTE_CHECK_MSG(!impl_->NameTaken(name),
                     "metric name registered as a different kind");
    it = impl_->gauges.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&impl_->mu);
  auto it = impl_->histograms.find(name);
  if (it == impl_->histograms.end()) {
    PRISTE_CHECK_MSG(!impl_->NameTaken(name),
                     "metric name registered as a different kind");
    it = impl_->histograms.emplace(name, std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  MutexLock lock(&impl_->mu);
  Snapshot snap;
  snap.counters.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, histogram] : impl_->histograms) {
    HistogramSample sample;
    sample.name = name;
    sample.count = histogram->count();
    sample.sum_seconds = histogram->sum_seconds();
    sample.p50_seconds = histogram->ApproxQuantile(0.5);
    sample.p99_seconds = histogram->ApproxQuantile(0.99);
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

namespace {

std::string FormatSeconds(double seconds) {
  if (seconds == std::numeric_limits<double>::infinity()) return ">67s";
  if (seconds >= 1.0) return StrFormat("%.3gs", seconds);
  if (seconds >= 1e-3) return StrFormat("%.3gms", seconds * 1e3);
  return StrFormat("%.3gus", seconds * 1e6);
}

}  // namespace

std::string MetricsRegistry::Render() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  for (const auto& c : snap.counters) {
    out += StrFormat("counter   %-40s %ld\n", c.name.c_str(), c.value);
  }
  for (const auto& g : snap.gauges) {
    out += StrFormat("gauge     %-40s %ld\n", g.name.c_str(), g.value);
  }
  for (const auto& h : snap.histograms) {
    out += StrFormat("histogram %-40s count=%ld sum=%s p50<=%s p99<=%s\n",
                     h.name.c_str(), h.count,
                     FormatSeconds(h.sum_seconds).c_str(),
                     FormatSeconds(h.p50_seconds).c_str(),
                     FormatSeconds(h.p99_seconds).c_str());
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(&impl_->mu);
  for (auto& [name, counter] : impl_->counters) counter->ResetForTest();
  for (auto& [name, gauge] : impl_->gauges) gauge->ResetForTest();
  for (auto& [name, histogram] : impl_->histograms) histogram->ResetForTest();
}

}  // namespace priste
