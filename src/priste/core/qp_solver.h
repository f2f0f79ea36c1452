#ifndef PRISTE_CORE_QP_SOLVER_H_
#define PRISTE_CORE_QP_SOLVER_H_

#include "priste/common/timer.h"
#include "priste/linalg/vector.h"

namespace priste::core {

/// The quadratic-programming engine behind Theorem IV.1's arbitrary-prior
/// check — this library's substitute for the paper's IBM CPLEX.
///
/// Both Theorem conditions have the *bilinear* form
///
///   f(π) = (π·a)(π·d) + π·l
///
/// over the probability simplex Δ, because the paper's quadratic matrices
/// are combinations of outer products of the Theorem vectors ā, b̄, c̄. For a
/// fixed slice x = π·a the objective is linear in π, and the slice
/// {π ∈ Δ : π·a = x} is a polytope whose vertices lie on edges of Δ. So the
/// global maximum is attained at a point with at most two nonzero
/// coordinates, and Maximize finds it exactly (up to floating-point
/// rounding) by enumerating
///
///   * every vertex e_i, with value a_i·d_i + l_i, and
///   * every edge (i, j) along which f is concave: with
///     q(t) = f(t·e_i + (1−t)·e_j) = A·t² + B·t + C and
///     A = (a_i − a_j)(d_i − d_j) < 0, the peak t* = −B/(2A) when
///     t* ∈ (0, 1). Convex and linear edges peak at a vertex.
///
/// Coordinates with d_i = l_i = 0 enter f only through π·a, and any mass on
/// them can move onto the smallest-a and the largest-a such coordinate
/// without changing f, so only those two are enumerated. The cost is
/// O(n²) in n ≤ |supp(d) ∪ supp(l)| + 2.
///
/// The edge rows run through linalg::kernels::ScanEdges (four j per step on
/// the AVX2 path, which picks the scalar loop's edge bit for bit).
///
/// A Deadline bounds the work: it is read after the vertices, before the
/// first edge row, and then once per 4096 or more scanned edges; when it
/// expires first the result is flagged timed_out. PriSTE's
/// conservative-release rule (Section IV-C) treats that check as failed —
/// privacy is never certified on a partial search.
class QpSolver {
 public:
  /// Knobs of the former slice-LP / projected-gradient search. The exact
  /// enumeration ignores them; they remain only so that configurations
  /// which still set them keep compiling.
  struct Options {
    int grid_points = 65;
    int refine_iters = 24;
    int pga_restarts = 4;
    int pga_iters = 120;
  };

  /// f(π) = (π·a)(π·d) + π·l. Vectors must share one size.
  struct Objective {
    linalg::Vector a;
    linalg::Vector d;
    linalg::Vector l;

    double Evaluate(const linalg::Vector& pi) const {
      return pi.Dot(a) * pi.Dot(d) + pi.Dot(l);
    }
  };

  struct Result {
    /// Evaluate(argmax): the maximum of f over the simplex, or — when
    /// timed_out — the best value the enumeration reached (never below the
    /// best vertex, which is scanned before the first deadline check).
    double max_value = 0.0;
    /// The maximizing prior: a point of the simplex with at most two
    /// nonzero coordinates.
    linalg::Vector argmax;
    /// True when the deadline expired before the enumeration finished.
    bool timed_out = false;
  };

  QpSolver() = default;
  explicit QpSolver(Options /*ignored*/) {}

  /// Maximizes `objective` over the probability simplex, stopping at
  /// `deadline`.
  [[nodiscard]] Result Maximize(const Objective& objective,
                                const Deadline& deadline) const;
};

}  // namespace priste::core

#endif  // PRISTE_CORE_QP_SOLVER_H_
