#include "priste/event/event.h"

#include "priste/common/check.h"
#include "priste/common/strings.h"
#include "priste/common/thread_annotations.h"

namespace priste::event {

PRISTE_NO_ABORT
Result<void> ValidateWindow(int start, int end) {
  if (start < 1) {
    return err::InvalidArgument("event window must start at timestamp >= 1");
  }
  if (end < start) {
    return err::InvalidArgument("event window must be non-empty");
  }
  return {};
}

PRISTE_NO_ABORT
Result<void> ValidateRegionCells(size_t num_cells,
                                 const std::vector<int>& cells) {
  if (cells.empty()) {
    return err::InvalidArgument("event regions must be non-empty");
  }
  for (const int cell : cells) {
    // A negative id wraps past num_cells.
    if (static_cast<size_t>(cell) >= num_cells) {
      return err::OutOfRange(StrFormat(
          "event cell %d outside the %zu-cell grid", cell, num_cells));
    }
  }
  return {};
}

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
  // A window the rule accepts holds a region: end = start + size − 1.
  PRISTE_CHECK_OK(ValidateWindow(start_, end_));
  const size_t m = regions_.front().num_states();
  for (const auto& r : regions_) {
    PRISTE_CHECK_MSG(r.num_states() == m, "regions must share the state count");
    PRISTE_CHECK_OK(ValidateRegionCells(m, r.States()));
  }
}

const geo::Region& SpatiotemporalEvent::RegionAt(int t) const {
  PRISTE_CHECK(t >= start_ && t <= end_);
  return regions_[fixed_region() ? 0 : static_cast<size_t>(t - start_)];
}

}  // namespace priste::event
