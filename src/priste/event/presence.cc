#include "priste/event/presence.h"

#include "priste/common/check.h"
#include "priste/common/strings.h"

namespace priste::event {

PresenceEvent::PresenceEvent(geo::Region region, int start, int end)
    : SpatiotemporalEvent(start, end, std::move(region)) {}

PresenceEvent::PresenceEvent(std::vector<geo::Region> regions, int start)
    : SpatiotemporalEvent(start, std::move(regions)) {}

std::shared_ptr<const PresenceEvent> PresenceEvent::Make(size_t num_states,
                                                         int first_state,
                                                         int last_state, int start,
                                                         int end) {
  return std::make_shared<PresenceEvent>(
      geo::Region::RangeOneBased(num_states, first_state, last_state), start, end);
}

bool PresenceEvent::Holds(const geo::Trajectory& trajectory) const {
  PRISTE_CHECK(trajectory.length() >= end());
  for (int t = start(); t <= end(); ++t) {
    if (RegionAt(t).Contains(trajectory.At(t))) return true;
  }
  return false;
}

BoolExpr::Ptr PresenceEvent::ToBooleanExpr() const {
  std::vector<BoolExpr::Ptr> terms;
  for (int t = start(); t <= end(); ++t) {
    for (int s : RegionAt(t).States()) terms.push_back(BoolExpr::Pred(t, s));
  }
  return BoolExpr::OrAll(terms);
}

std::string PresenceEvent::ToString() const {
  return StrFormat("PRESENCE(%s, T={%d:%d})", RegionAt(start()).ToString().c_str(),
                   start(), end());
}

}  // namespace priste::event
