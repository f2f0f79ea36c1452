#ifndef PRISTE_LPPM_EMISSION_CACHE_H_
#define PRISTE_LPPM_EMISSION_CACHE_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "priste/common/lru_cache.h"
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

  bool operator==(const EmissionKey& other) const {
    return kind == other.kind && width == other.width &&
           height == other.height && cell_km == other.cell_km &&
           param == other.param;
  }
};

struct EmissionKeyHash {
  size_t operator()(const EmissionKey& key) const;
};

/// The process-wide cross-user emission cache: a sharded byte-capacity LRU
/// from EmissionKey to the finished hmm::EmissionMatrix (which embeds the
/// planar-Laplace quadrature rows — BM_PlmEmissionBuild: 3–9 ms per build at
/// α = 0.5 for sides 8–20, 45 ms at side 20 and α = 0.5·2⁻¹²).
/// Mechanism constructors call GetOrBuild; every instance sharing a key holds
/// a ref-counted handle to ONE matrix, and evicted matrices are rebuilt
/// bit-identically on the next miss (the builders are deterministic pure
/// functions of the key).
///
/// Knobs (read once, when the shared instance is first touched):
///   PRISTE_EMISSION_CACHE=0       opt out (every construction builds afresh)
///   PRISTE_EMISSION_CACHE_MB=N    capacity in MiB (default 256)
/// plus the programmatic SetEnabled / SetCapacityBytes / Clear on the
/// instance for tests and benches.
///
/// Metrics: cache.emission.{hits,misses,evictions,inserts,bytes}.
class EmissionCache {
 public:
  using Cache = ShardedLruCache<EmissionKey, hmm::EmissionMatrix, EmissionKeyHash>;
  using Handle = Cache::Handle;

  /// The process-wide instance (never destroyed).
  static Cache& Shared();

  /// Byte charge of a cached matrix (the m×m payload plus vector overhead).
  static size_t ChargeBytes(const hmm::EmissionMatrix& emission);

  /// Lookup-or-build through the shared instance. `build` must be a
  /// deterministic function of `key` alone.
  static Handle GetOrBuild(const EmissionKey& key,
                           const std::function<hmm::EmissionMatrix()>& build);
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_EMISSION_CACHE_H_
