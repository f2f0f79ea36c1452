#include "priste/core/quantifier.h"

#include <cmath>
#include <utility>

#include "priste/common/check.h"

namespace priste::core {

PrivacyQuantifier::PrivacyQuantifier(const LiftedEventModel* model,
                                     bool normalize_emissions)
    : model_(model), normalize_emissions_(normalize_emissions) {
  PRISTE_CHECK(model_ != nullptr);
}

TheoremVectors PrivacyQuantifier::ComputeVectors(
    const std::vector<linalg::Vector>& emissions) const {
  const LiftedEventModel& model = *model_;
  const size_t m = model.num_states();
  const int t = static_cast<int>(emissions.size());
  PRISTE_CHECK_MSG(t >= 1, "need at least one observation");
  for (const auto& e : emissions) PRISTE_CHECK(e.size() == m);
  const int end = model.event_end();

  // Per-column normalization scales (a joint (b̄, c̄) rescaling — the
  // conditions are scale-invariant); applied in place after each emission
  // product, so columns are never copied.
  std::vector<double> inv_scale(emissions.size(), 1.0);
  if (normalize_emissions_) {
    for (size_t i = 0; i < emissions.size(); ++i) {
      const double scale = emissions[i].MaxAbs();
      PRISTE_CHECK_MSG(scale > 0.0, "emission column is all-zero");
      inv_scale[i] = 1.0 / scale;
    }
  }

  // The b̄ and c̄ chains with their ping-pong buffers — the only lifted
  // allocations in this call, reused across all timesteps. cur_c starts at
  // the all-ones column: Eq. (18)'s c̄ seed and the start of Eq. (19)'s β.
  const size_t lifted = model.lifted_size();
  linalg::Vector cur_b(lifted), nxt_b(lifted), nxt_c(lifted);
  linalg::Vector cur_c = linalg::Vector::Ones(lifted);

  // Emission product p̃ᴰ_{o_i} and its normalization, in place.
  const auto apply_emission = [&](int i, linalg::Vector& v) {
    model.ApplyEmissionInPlace(emissions[static_cast<size_t>(i - 1)], v);
    if (inv_scale[static_cast<size_t>(i - 1)] != 1.0) {
      v.ScaleInPlace(inv_scale[static_cast<size_t>(i - 1)]);
    }
  };

  // Right-to-left application of the Lemma III.2/III.3 chain onto the b̄
  // and c̄ seeds in cur_b and cur_c; `last` is the number of
  // diag/transition factors to run through (t during the event, end after
  // it). The chains advance in lockstep, so each transition factor is one
  // StepColumnPairInto — one pass over the base matrix for both.
  const auto apply_prefix = [&](int last) {
    for (int i = last; i >= 1; --i) {
      apply_emission(i, cur_b);
      apply_emission(i, cur_c);
      if (i > 1) {
        model.StepColumnPairInto(cur_b, cur_c, i - 1, nxt_b, nxt_c);
        std::swap(cur_b, nxt_b);
        std::swap(cur_c, nxt_c);
      }
    }
  };

  TheoremVectors out;
  out.t = t;
  out.a_bar = model.PriorContraction();

  if (t <= end) {
    // Eq. (18): b seeds with the event suffix v_t, c with the all-ones
    // column.
    cur_b = model.SuffixTrue(t);
    apply_prefix(t);
  } else {
    // Eqs. (19)/(20): backward vector β over o_{end+1}..o_t, then the
    // during-event prefix up to `end`, seeded with β∘mask for b and β for c.
    for (int tau = t - 1; tau >= end; --tau) {
      apply_emission(tau + 1, cur_c);
      model.StepColumnInto(cur_c, tau, nxt_c);
      std::swap(cur_c, nxt_c);
    }
    cur_b = cur_c.Hadamard(model.AcceptingMask());
    apply_prefix(end);
  }
  out.b_bar = model.ContractColumn(cur_b);
  out.c_bar = model.ContractColumn(cur_c);
  return out;
}

double PrivacyQuantifier::Condition15(const TheoremVectors& v,
                                      const linalg::Vector& pi, double epsilon) {
  const double e_eps = std::exp(epsilon);
  const double pa = pi.Dot(v.a_bar);
  const double pb = pi.Dot(v.b_bar);
  const double pc = pi.Dot(v.c_bar);
  return pa * ((e_eps - 1.0) * pb - e_eps * pc) + pb;
}

double PrivacyQuantifier::Condition16(const TheoremVectors& v,
                                      const linalg::Vector& pi, double epsilon) {
  const double e_eps = std::exp(epsilon);
  const double pa = pi.Dot(v.a_bar);
  const double pb = pi.Dot(v.b_bar);
  const double pc = pi.Dot(v.c_bar);
  return pa * ((e_eps - 1.0) * pb + pc) - e_eps * pb;
}

bool PrivacyQuantifier::CheckFixedPrior(const TheoremVectors& v,
                                        const linalg::Vector& pi, double epsilon,
                                        double tol) {
  return Condition15(v, pi, epsilon) <= tol && Condition16(v, pi, epsilon) <= tol;
}

PrivacyCheckResult PrivacyQuantifier::CheckArbitraryPrior(
    const TheoremVectors& raw, double epsilon, const QpSolver& solver,
    const Deadline& deadline) const {
  // Joint (b̄, c̄) rescaling is sign-preserving (see the quantifier tests);
  // normalizing to O(1) keeps the QP objectives well-scaled on long
  // observation prefixes.
  TheoremVectors v = raw;
  const double scale = v.c_bar.MaxAbs();
  if (scale > 0.0) {
    v.b_bar.ScaleInPlace(1.0 / scale);
    v.c_bar.ScaleInPlace(1.0 / scale);
  }
  const double e_eps = std::exp(epsilon);
  const size_t m = v.a_bar.size();

  // Eq. (15): (π·ā)(π·d15) + π·b̄ with d15 = (e^ε−1)b̄ − e^ε c̄.
  QpSolver::Objective f15;
  f15.a = v.a_bar;
  f15.d = linalg::Vector(m);
  for (size_t i = 0; i < m; ++i) {
    f15.d[i] = (e_eps - 1.0) * v.b_bar[i] - e_eps * v.c_bar[i];
  }
  f15.l = v.b_bar;

  // Eq. (16): (π·ā)(π·d16) − e^ε π·b̄ with d16 = (e^ε−1)b̄ + c̄.
  QpSolver::Objective f16;
  f16.a = v.a_bar;
  f16.d = linalg::Vector(m);
  for (size_t i = 0; i < m; ++i) {
    f16.d[i] = (e_eps - 1.0) * v.b_bar[i] + v.c_bar[i];
  }
  f16.l = v.b_bar.Scaled(-e_eps);

  const QpSolver::Result r15 = solver.Maximize(f15, deadline);
  const QpSolver::Result r16 = solver.Maximize(f16, deadline);

  PrivacyCheckResult out;
  out.max_condition15 = r15.max_value;
  out.max_condition16 = r16.max_value;
  out.timed_out = r15.timed_out || r16.timed_out;
  out.worst_pi = r15.max_value >= r16.max_value ? r15.argmax : r16.argmax;
  out.satisfied = !out.timed_out && r15.max_value <= 0.0 && r16.max_value <= 0.0;
  return out;
}

}  // namespace priste::core
