#ifndef PRISTE_EVENT_EVENT_H_
#define PRISTE_EVENT_EVENT_H_

#include <memory>
#include <string>
#include <vector>

#include "priste/event/boolean_expr.h"
#include "priste/geo/region.h"
#include "priste/geo/trajectory.h"

namespace priste::event {

/// Base class for the two representative spatiotemporal events the paper's
/// quantification machinery supports (Section II-B): PRESENCE — the user
/// appears in a region at *any* timestamp of a window — and PATTERN — the
/// user's locations lie in a sequence of regions at *every* timestamp of a
/// window. Both carry a consecutive window [start, end] (1-based, inclusive)
/// and a region at every window timestamp; a fixed-region event stores its
/// one region once, whatever the window's length.
class SpatiotemporalEvent {
 public:
  enum class Kind { kPresence, kPattern };

  virtual ~SpatiotemporalEvent() = default;

  virtual Kind kind() const = 0;

  /// First / last timestamp of the event window (1-based, inclusive).
  int start() const { return start_; }
  int end() const { return end_; }
  int window_length() const { return end_ - start_ + 1; }

  size_t num_states() const { return regions_.front().num_states(); }

  /// The region at window timestamp t ∈ [start, end].
  const geo::Region& RegionAt(int t) const;

  /// True for an event built with one region for its whole window:
  /// RegionAt returns that one object for every t.
  bool fixed_region() const { return regions_.size() == 1; }

  /// Ground truth of the event on a trajectory covering the window.
  virtual bool Holds(const geo::Trajectory& trajectory) const = 0;

  /// Expands the event to its Boolean expression (Table II) — exponential
  /// objects stay small because PRESENCE/PATTERN are flat OR/AND-of-ORs.
  virtual BoolExpr::Ptr ToBooleanExpr() const = 0;

  virtual std::string ToString() const = 0;

 protected:
  /// `regions[i]` is the region at timestamp start+i; all regions must share
  /// the same state count, the window must be non-empty and start >= 1.
  SpatiotemporalEvent(int start, std::vector<geo::Region> regions);

  /// `region` at every timestamp of [start, end], stored once.
  SpatiotemporalEvent(int start, int end, geo::Region region);

 private:
  SpatiotemporalEvent(int start, int end, std::vector<geo::Region>&& regions);

  int start_;
  int end_;
  /// One region per window timestamp, or one for a fixed-region event.
  std::vector<geo::Region> regions_;
};

using EventPtr = std::shared_ptr<const SpatiotemporalEvent>;

}  // namespace priste::event

#endif  // PRISTE_EVENT_EVENT_H_
