#include "priste/core/two_world.h"

#include <algorithm>

#include "priste/common/check.h"

namespace priste::core {

using event::SpatiotemporalEvent;
using linalg::Matrix;
using linalg::Vector;

TwoWorldModel::TwoWorldModel(markov::TransitionMatrix base, event::EventPtr ev)
    : TwoWorldModel(markov::TransitionSchedule::Homogeneous(std::move(base)),
                    std::move(ev)) {}

TwoWorldModel::TwoWorldModel(markov::TransitionSchedule schedule,
                             event::EventPtr ev)
    : schedule_(std::move(schedule)), event_(std::move(ev)) {
  PRISTE_CHECK(event_ != nullptr);
  PRISTE_CHECK_MSG(event_->num_states() == schedule_.num_states(),
                   "event regions and chain disagree on the state count");
  const size_t m = num_states();
  first_window_step_ = std::max(event_->start() - 1, 1);
  last_window_step_ = event_->end() - 1;
  const int steps = last_window_step_ - first_window_step_ + 1;
  const int kept = event_->fixed_region() ? std::min(steps, 1) : steps;
  for (int k = 0; k < kept; ++k) {
    window_indicators_.push_back(
        event_->RegionAt(first_window_step_ + k + 1).Indicator());
  }
  InitializeDerived(Vector::Zeros(m).Concat(Vector::Ones(m)));
}

TwoWorldModel::StepForm TwoWorldModel::FormAt(int t) const {
  StepForm form;
  form.in_window = t >= first_window_step_ && t <= last_window_step_;
  if (!form.in_window) return form;
  form.enter_true = event_->kind() == SpatiotemporalEvent::Kind::kPresence ||
                    t == event_->start() - 1;
  form.indicator = &window_indicators_[
      window_indicators_.size() == 1
          ? 0
          : static_cast<size_t>(t - first_window_step_)];
  return form;
}

Matrix TwoWorldModel::TransitionAt(int t) const {
  PRISTE_CHECK(t >= 1);
  const size_t m = num_states();
  const Matrix& base = schedule_.AtStep(t).matrix();
  const StepForm form = FormAt(t);
  Matrix out(2 * m, 2 * m);
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < m; ++c) {
      const double p = base(r, c);
      if (!form.in_window) {
        // Eq. (5)/(8): block diagonal, the worlds evolve independently.
        out(r, c) = p;
        out(m + r, m + c) = p;
        continue;
      }
      // One world's row splits by destination region d — keep = M·(1−d)ᴰ
      // into FALSE, enter = M·dᴰ into TRUE — and the other is absorbing.
      // Eq. (4) for PRESENCE and Eq. (6) for the PATTERN window entry split
      // FALSE ([keep enter; 0 M]); Eq. (7) splits TRUE ([M 0; keep enter]):
      // trajectories leaving the region fall back to FALSE.
      const double d = (*form.indicator)[c];
      const size_t split = form.enter_true ? r : m + r;
      out(split, c) = p * (1.0 - d);
      out(split, m + c) = p * d;
      if (form.enter_true) {
        out(m + r, m + c) = p;
      } else {
        out(r, c) = p;
      }
    }
  }
  return out;
}

void TwoWorldModel::StepRowSpanInto(const double* v, int t,
                                    double* out) const {
  const size_t m = num_states();
  PRISTE_CHECK(t >= 1);
  const markov::TransitionMatrix& base = schedule_.AtStep(t);
  const double* vf = v;
  const double* vt = v + m;
  double* of = out;
  double* ot = out + m;

  const StepForm form = FormAt(t);
  if (!form.in_window) {
    // Block diagonal (Eq. 5/8): the worlds evolve independently.
    base.PropagateSpan(vf, of);
    base.PropagateSpan(vt, ot);
    return;
  }

  // Window step: both blocks of each world-row are column rescalings of the
  // base product, so two base products cover the whole 2m×2m operator.
  static thread_local std::vector<double> u, w;
  // priste-lint: allow(hot-path-alloc) amortized thread_local scratch growth
  u.resize(m);
  // priste-lint: allow(hot-path-alloc) amortized thread_local scratch growth
  w.resize(m);
  base.PropagateSpan(vf, u.data());  // u = v_F · M
  base.PropagateSpan(vt, w.data());  // w = v_T · M
  const Vector& d = *form.indicator;
  if (form.enter_true) {
    // [keep enter; 0 M]: F-mass landing in d transfers to TRUE.
    for (size_t i = 0; i < m; ++i) {
      of[i] = u[i] * (1.0 - d[i]);
      ot[i] = u[i] * d[i] + w[i];
    }
  } else {
    // [M 0; keep enter]: T-mass leaving d falls back to FALSE.
    for (size_t i = 0; i < m; ++i) {
      of[i] = u[i] + w[i] * (1.0 - d[i]);
      ot[i] = w[i] * d[i];
    }
  }
}

void TwoWorldModel::StepColumnSpansInto(const double* const* v,
                                        double* const* out, size_t count,
                                        int t) const {
  const size_t m = num_states();
  PRISTE_CHECK(t >= 1);
  PRISTE_CHECK(count >= 1 && count <= 2);
  const markov::TransitionMatrix& base = schedule_.AtStep(t);
  // The step's base products, gathered for one pass over M.
  const double* in[4] = {};
  double* prod[4] = {};
  size_t products = 0;

  const StepForm form = FormAt(t);
  if (!form.in_window) {
    // Block diagonal (Eq. 5/8): each world takes its own base product.
    for (size_t k = 0; k < count; ++k) {
      in[products] = v[k];
      prod[products++] = out[k];
      in[products] = v[k] + m;
      prod[products++] = out[k] + m;
    }
    base.BackwardSpans(in, prod, products);
    return;
  }

  // Column step: keep·x + enter·y = M·((1−d)∘x + d∘y) — mix first, then one
  // base product per world.
  static thread_local std::vector<double> mix;
  mix.resize(2 * m);
  const Vector& d = *form.indicator;
  for (size_t k = 0; k < count; ++k) {
    const double* vf = v[k];
    const double* vt = v[k] + m;
    double* mk = mix.data() + k * m;
    for (size_t i = 0; i < m; ++i) {
      mk[i] = (1.0 - d[i]) * vf[i] + d[i] * vt[i];
    }
    in[products] = form.enter_true ? mk : vf;
    prod[products++] = out[k];
    in[products] = form.enter_true ? vt : mk;
    prod[products++] = out[k] + m;
  }
  base.BackwardSpans(in, prod, products);
}

linalg::Vector TwoWorldModel::LiftInitial(const linalg::Vector& pi) const {
  const size_t m = num_states();
  PRISTE_CHECK(pi.size() == m);
  Vector lifted(2 * m);
  if (event_->start() == 1) {
    const Vector s = event_->RegionAt(1).Indicator();
    for (size_t i = 0; i < m; ++i) {
      lifted[i] = pi[i] * (1.0 - s[i]);
      lifted[m + i] = pi[i] * s[i];
    }
  } else {
    for (size_t i = 0; i < m; ++i) lifted[i] = pi[i];
  }
  return lifted;
}

linalg::Vector TwoWorldModel::ContractColumn(const linalg::Vector& col) const {
  const size_t m = num_states();
  PRISTE_CHECK(col.size() == 2 * m);
  Vector g(m);
  if (event_->start() == 1) {
    const Vector s = event_->RegionAt(1).Indicator();
    for (size_t i = 0; i < m; ++i) {
      g[i] = (1.0 - s[i]) * col[i] + s[i] * col[m + i];
    }
  } else {
    for (size_t i = 0; i < m; ++i) g[i] = col[i];
  }
  return g;
}

}  // namespace priste::core
