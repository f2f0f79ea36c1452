#include "priste/lppm/emission_cache.h"

#include <utility>

namespace priste::lppm {

EmissionCache::EmissionCache(const std::string& metric_prefix,
                             size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      hits_(MetricsRegistry::Global().GetCounter(metric_prefix + ".hits")),
      misses_(MetricsRegistry::Global().GetCounter(metric_prefix + ".misses")),
      evictions_(
          MetricsRegistry::Global().GetCounter(metric_prefix + ".evictions")),
      inserts_(MetricsRegistry::Global().GetCounter(metric_prefix + ".inserts")),
      bytes_(MetricsRegistry::Global().GetGauge(metric_prefix + ".bytes")) {}

EmissionCache& EmissionCache::Shared() {
  // Leaked intentionally: mechanism handles may be released during static
  // destruction, after a function-local static cache would already be gone.
  static EmissionCache* shared =
      new EmissionCache("cache.emission", size_t{256} << 20);
  return *shared;
}

size_t EmissionCache::ChargeBytes(const hmm::EmissionMatrix& emission) {
  return emission.num_states() * emission.num_outputs() * sizeof(double) +
         sizeof(hmm::EmissionMatrix);
}

EmissionCache::Handle EmissionCache::GetOrBuild(
    const EmissionKey& key, const std::function<hmm::EmissionMatrix()>& build) {
  {
    MutexLock lock(&mu_);
    const auto it = index_.find(key);
    if (capacity_bytes_ > 0 && it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.Increment();
      return it->second->value;
    }
  }
  misses_.Increment();
  Handle built = std::make_shared<const hmm::EmissionMatrix>(build());
  const size_t charge = ChargeBytes(*built);

  MutexLock lock(&mu_);
  if (capacity_bytes_ == 0) return built;
  const auto raced = index_.find(key);
  if (raced != index_.end()) return raced->second->value;  // a racer won
  lru_.push_front(Entry{key, built, charge});
  index_.emplace(key, lru_.begin());
  charge_ += charge;
  inserts_.Increment();
  while (charge_ > capacity_bytes_) {
    const Entry& victim = lru_.back();
    charge_ -= victim.charge;
    index_.erase(victim.key);
    lru_.pop_back();  // holders of the handle keep the matrix alive
    evictions_.Increment();
  }
  bytes_.Set(static_cast<long>(charge_));
  return built;
}

void EmissionCache::Clear() {
  MutexLock lock(&mu_);
  index_.clear();
  lru_.clear();
  charge_ = 0;
  bytes_.Set(0);
}

void EmissionCache::SetCapacityBytes(size_t capacity_bytes) {
  MutexLock lock(&mu_);
  capacity_bytes_ = capacity_bytes;
}

size_t EmissionCache::capacity_bytes() const {
  MutexLock lock(&mu_);
  return capacity_bytes_;
}

}  // namespace priste::lppm
