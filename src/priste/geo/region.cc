#include "priste/geo/region.h"

#include "priste/common/check.h"
#include "priste/common/strings.h"

namespace priste::geo {

Region::Region(size_t num_states, std::initializer_list<int> states)
    : mask_(num_states, false) {
  for (int s : states) Add(s);
}

Region::Region(size_t num_states, const std::vector<int>& states)
    : mask_(num_states, false) {
  for (int s : states) Add(s);
}

Region Region::RangeOneBased(size_t num_states, int first, int last) {
  PRISTE_CHECK(first >= 1 && last >= first &&
               static_cast<size_t>(last) <= num_states);
  Region r(num_states);
  for (int s = first; s <= last; ++s) r.Add(s - 1);
  return r;
}

void Region::Add(int state) {
  PRISTE_CHECK(state >= 0 && static_cast<size_t>(state) < mask_.size());
  mask_[static_cast<size_t>(state)] = true;
}

size_t Region::Count() const {
  size_t count = 0;
  for (bool b : mask_) count += b ? 1 : 0;
  return count;
}

std::vector<int> Region::States() const {
  std::vector<int> out;
  out.reserve(Count());
  for (size_t i = 0; i < mask_.size(); ++i) {
    if (mask_[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

linalg::Vector Region::Indicator() const {
  linalg::Vector v(mask_.size());
  for (size_t i = 0; i < mask_.size(); ++i) v[i] = mask_[i] ? 1.0 : 0.0;
  return v;
}

Region Region::Complement() const {
  Region out(mask_.size());
  for (size_t i = 0; i < mask_.size(); ++i) {
    out.mask_[i] = !mask_[i];
  }
  return out;
}

Region Region::Union(const Region& other) const {
  PRISTE_CHECK(mask_.size() == other.mask_.size());
  Region out(mask_.size());
  for (size_t i = 0; i < mask_.size(); ++i) out.mask_[i] = mask_[i] || other.mask_[i];
  return out;
}

std::string Region::ToString() const {
  std::vector<std::string> parts;
  for (int s : States()) parts.push_back(StrFormat("s%d", s + 1));
  return "{" + StrJoin(parts, ", ") + "}";
}

}  // namespace priste::geo
