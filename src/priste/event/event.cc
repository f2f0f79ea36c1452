#include "priste/event/event.h"

#include "priste/common/check.h"

namespace priste::event {

SpatiotemporalEvent::SpatiotemporalEvent(int start,
                                         std::vector<geo::Region> regions)
    : SpatiotemporalEvent(start, start + static_cast<int>(regions.size()) - 1,
                          std::move(regions)) {}

SpatiotemporalEvent::SpatiotemporalEvent(int start, int end,
                                         geo::Region region)
    : SpatiotemporalEvent(start, end,
                          std::vector<geo::Region>{std::move(region)}) {}

SpatiotemporalEvent::SpatiotemporalEvent(int start, int end,
                                         std::vector<geo::Region>&& regions)
    : start_(start), end_(end), regions_(std::move(regions)) {
  PRISTE_CHECK_MSG(start_ >= 1, "event window must start at timestamp >= 1");
  PRISTE_CHECK_MSG(end_ >= start_ && !regions_.empty(),
                   "event window must be non-empty");
  const size_t m = regions_.front().num_states();
  for (const auto& r : regions_) {
    PRISTE_CHECK_MSG(r.num_states() == m, "regions must share the state count");
    PRISTE_CHECK_MSG(!r.Empty(), "event regions must be non-empty");
  }
}

const geo::Region& SpatiotemporalEvent::RegionAt(int t) const {
  PRISTE_CHECK(t >= start_ && t <= end_);
  return regions_[fixed_region() ? 0 : static_cast<size_t>(t - start_)];
}

}  // namespace priste::event
