#ifndef PRISTE_LPPM_EMISSION_CACHE_H_
#define PRISTE_LPPM_EMISSION_CACHE_H_

#include <compare>
#include <cstddef>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "priste/common/metrics.h"
#include "priste/common/mutex.h"
#include "priste/common/thread_annotations.h"
#include "priste/hmm/emission_model.h"

namespace priste::lppm {

/// Identity of one mechanism's emission matrix: every field that the
/// deterministic builder reads. Two users (or two runs, or two PristeGeoInd
/// instances) sharing (grid dims, cell size, mechanism kind, budget) get the
/// same matrix — the paper's repeated-runs workload rebuilds exactly these.
struct EmissionKey {
  enum class Kind : int {
    kPlanarLaplace = 0,  // param = α (the PLM budget)
    kCloaking = 1,       // param = radius_km (+∞ once it covers the map)
  };

  Kind kind = Kind::kPlanarLaplace;
  int width = 0;
  int height = 0;
  double cell_km = 0.0;
  double param = 0.0;

  auto operator<=>(const EmissionKey&) const = default;
};

/// A byte-capacity LRU from EmissionKey to the finished hmm::EmissionMatrix
/// (which embeds the planar-Laplace quadrature rows — BM_PlmEmissionBuild:
/// 3–9 ms per build at α = 0.5 for sides 8–20, 45 ms at side 20 and
/// α = 0.5·2⁻¹²). Mechanism constructors go through Shared().GetOrBuild, so
/// every instance sharing a key holds a ref-counted handle to ONE matrix.
///
///  * Handles are shared_ptr<const EmissionMatrix>: eviction drops only the
///    cache's own reference, so a handle stays valid after its entry leaves.
///  * Eviction is strictly LRU by GetOrBuild recency, on insert, once the
///    retained charge exceeds the capacity. A value larger than the whole
///    capacity is returned but not retained.
///  * The builders are deterministic pure functions of the key, so an
///    evicted matrix rebuilds bit-identically on the next miss.
///  * Capacity 0 is the off switch: no hits, nothing retained. A capacity
///    change applies at the next insert.
///  * One mutex guards everything; builds run outside it.
///
/// Metrics: `P.hits`, `P.misses`, `P.evictions`, `P.inserts` counters and a
/// `P.bytes` gauge, with P = "cache.emission" for the shared instance.
class EmissionCache {
 public:
  using Handle = std::shared_ptr<const hmm::EmissionMatrix>;

  EmissionCache(const std::string& metric_prefix, size_t capacity_bytes);

  /// The process-wide instance, 256 MiB (never destroyed).
  static EmissionCache& Shared();

  /// Byte charge of a cached matrix (the m×m payload plus vector overhead).
  static size_t ChargeBytes(const hmm::EmissionMatrix& emission);

  /// The cached matrix for `key`, or `build()`'s, which is then inserted.
  /// `build` must be a deterministic function of `key` alone. Two threads
  /// racing one cold key may both build; the first insert wins and both
  /// get its handle.
  [[nodiscard]] Handle GetOrBuild(
      const EmissionKey& key, const std::function<hmm::EmissionMatrix()>& build)
      PRISTE_EXCLUDES(mu_);

  /// Drops every entry; outstanding handles stay valid.
  void Clear() PRISTE_EXCLUDES(mu_);

  void SetCapacityBytes(size_t capacity_bytes) PRISTE_EXCLUDES(mu_);
  size_t capacity_bytes() const PRISTE_EXCLUDES(mu_);

 private:
  struct Entry {
    EmissionKey key;
    Handle value;
    size_t charge = 0;
  };

  mutable Mutex mu_ PRISTE_LOCK_LEVEL(10);
  std::list<Entry> lru_ PRISTE_GUARDED_BY(mu_);  // front = most recent
  std::map<EmissionKey, std::list<Entry>::iterator> index_ PRISTE_GUARDED_BY(mu_);
  size_t charge_ PRISTE_GUARDED_BY(mu_) = 0;
  size_t capacity_bytes_ PRISTE_GUARDED_BY(mu_);
  Counter& hits_;
  Counter& misses_;
  Counter& evictions_;
  Counter& inserts_;
  Gauge& bytes_;
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_EMISSION_CACHE_H_
