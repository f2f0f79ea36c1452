#ifndef PRISTE_EVENT_PATTERN_H_
#define PRISTE_EVENT_PATTERN_H_

#include <vector>

#include "priste/event/event.h"

namespace priste::event {

/// PATTERN(S, T) (Definition II.3): true when the user's location lies in
/// region s_t at *every* timestamp of the window — Table II's AND-of-ORs, the
/// generalization of a sensitive trajectory.
class PatternEvent : public SpatiotemporalEvent {
 public:
  /// regions[i] applies at timestamp start+i.
  PatternEvent(std::vector<geo::Region> regions, int start);

  /// A pattern over a single fixed region (stay within an area for the
  /// whole window).
  PatternEvent(geo::Region region, int start, int end);

  Kind kind() const override { return Kind::kPattern; }
  bool Holds(const geo::Trajectory& trajectory) const override;
  BoolExpr::Ptr ToBooleanExpr() const override;
  std::string ToString() const override;
};

}  // namespace priste::event

#endif  // PRISTE_EVENT_PATTERN_H_
