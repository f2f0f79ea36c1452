#include "priste/core/automaton_world.h"

#include <cstring>
#include <vector>

#include "priste/common/check.h"
#include "priste/linalg/kernels.h"

namespace priste::core {

Result<std::shared_ptr<AutomatonWorldModel>> AutomatonWorldModel::Create(
    markov::TransitionSchedule schedule, const event::BoolExpr& expr,
    int max_automaton_states) {
  PRISTE_TRY(
      event::EventAutomaton automaton,
      event::EventAutomaton::Compile(expr, schedule.num_states(),
                                     max_automaton_states));
  auto model = std::shared_ptr<AutomatonWorldModel>(
      new AutomatonWorldModel(std::move(schedule), std::move(automaton)));

  const size_t m = model->num_states();
  const int k = model->automaton_.num_automaton_states();
  linalg::Vector mask(model->lifted_size());
  for (int q = 0; q < k; ++q) {
    if (!model->automaton_.IsAccepting(q)) continue;
    for (size_t s = 0; s < m; ++s) {
      mask[static_cast<size_t>(q) * m + s] = 1.0;
    }
  }
  model->InitializeDerived(std::move(mask));
  return model;
}

linalg::Vector AutomatonWorldModel::LiftInitial(const linalg::Vector& pi) const {
  const size_t m = num_states();
  PRISTE_CHECK(pi.size() == m);
  linalg::Vector lifted(lifted_size());
  const int q0 = automaton_.initial_state();
  if (automaton_.start() == 1) {
    // The automaton consumes the state at time 1 immediately.
    for (size_t s = 0; s < m; ++s) {
      const int q = automaton_.Next(q0, 1, static_cast<int>(s));
      lifted[static_cast<size_t>(q) * m + s] = pi[s];
    }
  } else {
    for (size_t s = 0; s < m; ++s) {
      lifted[static_cast<size_t>(q0) * m + s] = pi[s];
    }
  }
  return lifted;
}

linalg::Vector AutomatonWorldModel::ContractColumn(const linalg::Vector& col) const {
  const size_t m = num_states();
  PRISTE_CHECK(col.size() == lifted_size());
  linalg::Vector g(m);
  const int q0 = automaton_.initial_state();
  if (automaton_.start() == 1) {
    for (size_t s = 0; s < m; ++s) {
      const int q = automaton_.Next(q0, 1, static_cast<int>(s));
      g[s] = col[static_cast<size_t>(q) * m + s];
    }
  } else {
    for (size_t s = 0; s < m; ++s) {
      g[s] = col[static_cast<size_t>(q0) * m + s];
    }
  }
  return g;
}

void AutomatonWorldModel::StepRowSpanInto(const double* v, int t,
                                          double* out) const {
  const size_t m = num_states();
  const int k = automaton_.num_automaton_states();
  PRISTE_CHECK(t >= 1);
  const markov::TransitionMatrix& base = schedule_.AtStep(t);
  const int tau = t + 1;
  const bool in_window = tau >= automaton_.start() && tau <= automaton_.end();

  std::memset(out, 0, lifted_size() * sizeof(double));
  static thread_local std::vector<double> u;
  // priste-lint: allow(hot-path-alloc) amortized thread_local scratch growth
  u.resize(m);
  for (int q = 0; q < k; ++q) {
    const double* vq = v + static_cast<size_t>(q) * m;
    // Skip empty automaton slices (most are, outside the frontier).
    bool any = false;
    for (size_t s = 0; s < m && !any; ++s) any = vq[s] != 0.0;
    if (!any) continue;
    // u[s'] = Σ_s vq[s]·M(s, s') — one base product per live slice.
    base.PropagateSpan(vq, u.data());
    if (in_window) {
      for (size_t sp = 0; sp < m; ++sp) {
        const int qp = automaton_.Next(q, tau, static_cast<int>(sp));
        out[static_cast<size_t>(qp) * m + sp] += u[sp];
      }
    } else {
      linalg::kernels::Axpy(1.0, u.data(),
                            out + static_cast<size_t>(q) * m, m);
    }
  }
}

void AutomatonWorldModel::StepColumnSpansInto(const double* const* v,
                                              double* const* out,
                                              size_t count, int t) const {
  const size_t m = num_states();
  const int k = automaton_.num_automaton_states();
  PRISTE_CHECK(t >= 1);
  PRISTE_CHECK(count >= 1 && count <= 2);
  const markov::TransitionMatrix& base = schedule_.AtStep(t);
  const int tau = t + 1;
  const bool in_window = tau >= automaton_.start() && tau <= automaton_.end();

  static thread_local std::vector<double> z;
  z.resize(m);
  for (size_t i = 0; i < count; ++i) {
    for (int q = 0; q < k; ++q) {
      // z[s'] = v[δ(q, τ, s')·m + s'] — the successor's value per
      // destination.
      if (in_window) {
        for (size_t sp = 0; sp < m; ++sp) {
          const int qp = automaton_.Next(q, tau, static_cast<int>(sp));
          z[sp] = v[i][static_cast<size_t>(qp) * m + sp];
        }
      } else {
        std::memcpy(z.data(), v[i] + static_cast<size_t>(q) * m,
                    m * sizeof(double));
      }
      // out[(q, s)] = Σ_{s'} M(s, s')·z[s'] — a base column product per
      // slice.
      base.BackwardSpan(z.data(), out[i] + static_cast<size_t>(q) * m);
    }
  }
}

}  // namespace priste::core
