#include "priste/event/pattern.h"

#include "priste/common/check.h"
#include "priste/common/strings.h"

namespace priste::event {

PatternEvent::PatternEvent(std::vector<geo::Region> regions, int start)
    : SpatiotemporalEvent(start, std::move(regions)) {}

PatternEvent::PatternEvent(geo::Region region, int start, int end)
    : SpatiotemporalEvent(start, end, std::move(region)) {}

bool PatternEvent::Holds(const geo::Trajectory& trajectory) const {
  PRISTE_CHECK(trajectory.length() >= end());
  for (int t = start(); t <= end(); ++t) {
    if (!RegionAt(t).Contains(trajectory.At(t))) return false;
  }
  return true;
}

BoolExpr::Ptr PatternEvent::ToBooleanExpr() const {
  std::vector<BoolExpr::Ptr> conjuncts;
  for (int t = start(); t <= end(); ++t) {
    std::vector<BoolExpr::Ptr> disjuncts;
    for (int s : RegionAt(t).States()) disjuncts.push_back(BoolExpr::Pred(t, s));
    conjuncts.push_back(BoolExpr::OrAll(disjuncts));
  }
  return BoolExpr::AndAll(conjuncts);
}

std::string PatternEvent::ToString() const {
  std::vector<std::string> parts;
  for (int t = start(); t <= end(); ++t) {
    parts.push_back(StrFormat("t%d:%s", t, RegionAt(t).ToString().c_str()));
  }
  return "PATTERN(" + StrJoin(parts, ", ") + ")";
}

}  // namespace priste::event
