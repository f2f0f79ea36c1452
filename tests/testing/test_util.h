#ifndef PRISTE_TESTS_TESTING_TEST_UTIL_H_
#define PRISTE_TESTS_TESTING_TEST_UTIL_H_

#include <vector>

#include "priste/common/check.h"
#include "priste/common/random.h"
#include "priste/geo/region.h"
#include "priste/linalg/matrix.h"
#include "priste/linalg/vector.h"
#include "priste/markov/transition_matrix.h"

namespace priste::testing {

/// A random row-stochastic matrix with strictly positive entries.
inline markov::TransitionMatrix RandomTransition(size_t m, Rng& rng) {
  linalg::Matrix t(m, m);
  for (size_t r = 0; r < m; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < m; ++c) {
      t(r, c) = 0.05 + rng.NextDouble();
      sum += t(r, c);
    }
    for (size_t c = 0; c < m; ++c) t(r, c) /= sum;
  }
  auto result = markov::TransitionMatrix::Create(std::move(t));
  PRISTE_CHECK(result.ok());
  return std::move(result).value();
}

/// A random probability vector with strictly positive entries.
inline linalg::Vector RandomProbability(size_t m, Rng& rng) {
  linalg::Vector p(m);
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    p[i] = 0.05 + rng.NextDouble();
    sum += p[i];
  }
  p.ScaleInPlace(1.0 / sum);
  return p;
}

/// A random non-empty, non-full region over m states.
inline geo::Region RandomRegion(size_t m, Rng& rng) {
  PRISTE_CHECK(m >= 2);
  for (;;) {
    geo::Region region(m);
    for (size_t s = 0; s < m; ++s) {
      if (rng.NextDouble() < 0.4) region.Add(static_cast<int>(s));
    }
    if (!region.Empty() && region.Count() < m) return region;
  }
}

/// A random emission column: Pr(o | s_i) values in (0, 1], one per state.
inline linalg::Vector RandomEmissionColumn(size_t m, Rng& rng) {
  linalg::Vector e(m);
  for (size_t i = 0; i < m; ++i) e[i] = 0.05 + 0.95 * rng.NextDouble();
  return e;
}

/// A δ-location-set-style emission column: zero outside a random support of
/// `support` cells, values in (0, 1] on it. As the first observation's
/// column it puts the release engine on its sparse prefix rows.
inline linalg::Vector RandomSparseEmissionColumn(size_t m, size_t support,
                                                 Rng& rng) {
  PRISTE_CHECK(support >= 1 && support <= m);
  linalg::Vector e(m);
  size_t placed = 0;
  while (placed < support) {
    const size_t i = rng.NextBelow(m);
    if (e[i] == 0.0) {
      e[i] = 0.05 + 0.95 * rng.NextDouble();
      ++placed;
    }
  }
  return e;
}

}  // namespace priste::testing

#include "priste/event/boolean_expr.h"

namespace priste::testing {

/// A random Boolean expression over timestamps [min_t, max_t] and states
/// [0, m), with at least one predicate. Depth-limited recursive tree.
inline event::BoolExpr::Ptr RandomBoolExpr(size_t m, int max_t, int depth,
                                           Rng& rng, int min_t = 1) {
  if (depth <= 0 || rng.NextDouble() < 0.3) {
    return event::BoolExpr::Pred(
        min_t + static_cast<int>(
                    rng.NextBelow(static_cast<uint64_t>(max_t - min_t + 1))),
        static_cast<int>(rng.NextBelow(m)));
  }
  switch (rng.NextBelow(3)) {
    case 0:
      return event::BoolExpr::And(
          RandomBoolExpr(m, max_t, depth - 1, rng, min_t),
          RandomBoolExpr(m, max_t, depth - 1, rng, min_t));
    case 1:
      return event::BoolExpr::Or(
          RandomBoolExpr(m, max_t, depth - 1, rng, min_t),
          RandomBoolExpr(m, max_t, depth - 1, rng, min_t));
    default:
      return event::BoolExpr::Not(
          RandomBoolExpr(m, max_t, depth - 1, rng, min_t));
  }
}

}  // namespace priste::testing

#endif  // PRISTE_TESTS_TESTING_TEST_UTIL_H_
