#ifndef PRISTE_GEO_REGION_H_
#define PRISTE_GEO_REGION_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "priste/linalg/vector.h"

namespace priste::geo {

/// A region s ∈ {0,1}^m — the paper's indicator vector over map states
/// (Definition II.2). Backed by a bool vector; converts to the 0/1 double
/// vector used in the matrix constructions.
class Region {
 public:
  /// The empty region over `num_states` states.
  explicit Region(size_t num_states) : mask_(num_states, false) {}

  /// Region containing exactly `states` (0-based indices).
  Region(size_t num_states, std::initializer_list<int> states);
  Region(size_t num_states, const std::vector<int>& states);

  /// The paper's "S = {a : b}" 1-based range shorthand, e.g.
  /// Range(400, 1, 10) is PRESENCE's {s_1, …, s_10}.
  static Region RangeOneBased(size_t num_states, int first, int last);

  size_t num_states() const { return mask_.size(); }

  bool Contains(int state) const {
    PRISTE_DCHECK(state >= 0 && static_cast<size_t>(state) < mask_.size());
    return mask_[static_cast<size_t>(state)];
  }

  void Add(int state);

  /// Number of states in the region (the paper's "event width" for a
  /// single-region PRESENCE).
  size_t Count() const;
  bool Empty() const { return Count() == 0; }

  /// All member states, ascending.
  std::vector<int> States() const;

  /// The indicator vector s as doubles (column vector in the paper).
  linalg::Vector Indicator() const;

  /// Complement region.
  Region Complement() const;

  /// Set union. Sizes must match.
  Region Union(const Region& other) const;

  bool operator==(const Region& other) const { return mask_ == other.mask_; }

  std::string ToString() const;

 private:
  std::vector<bool> mask_;
};

}  // namespace priste::geo

#endif  // PRISTE_GEO_REGION_H_
