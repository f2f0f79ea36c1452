#include "priste/core/release_step.h"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "priste/core/automaton_world.h"
#include "priste/core/priste_delta_loc.h"
#include "priste/core/priste_geo_ind.h"
#include "priste/core/two_world.h"
#include "priste/event/boolean_expr.h"
#include "priste/event/presence.h"
#include "priste/geo/gaussian_grid_model.h"
#include "priste/markov/markov_chain.h"
#include "testing/test_util.h"

namespace priste::core {
namespace {

using event::PresenceEvent;

// True when the CI cold-path matrix runs this suite with the prefix cache
// forced off (PRISTE_MAX_CACHE_SUPPORT=0 overrides every context's
// max_cache_support at construction). The equivalence assertions hold either
// way; only the which-path-served-it diagnostics flip.
bool CacheForcedOffByEnv() {
  const char* env = std::getenv("PRISTE_MAX_CACHE_SUPPORT");
  return env != nullptr && std::string(env) == "0";
}

void ExpectVectorsNear(const TheoremVectors& cached, const TheoremVectors& cold,
                       double tol) {
  ASSERT_EQ(cached.t, cold.t);
  ASSERT_EQ(cached.a_bar.size(), cold.a_bar.size());
  for (size_t i = 0; i < cold.a_bar.size(); ++i) {
    EXPECT_NEAR(cached.a_bar[i], cold.a_bar[i], tol) << "a_bar[" << i << "]";
    EXPECT_NEAR(cached.b_bar[i], cold.b_bar[i], tol)
        << "b_bar[" << i << "] at t=" << cold.t;
    EXPECT_NEAR(cached.c_bar[i], cold.c_bar[i], tol)
        << "c_bar[" << i << "] at t=" << cold.t;
  }
}

// Drives a full release-step schedule — several candidates per timestamp,
// the last one committed — over sparse δ-location-set-style columns, and
// requires the cached engine to agree with the cold recompute-from-t=1 path
// at every prefix: Theorem vectors to ≤ 1e-9, QP condition maxima to
// ≤ 1e-9, and the certified decision exactly.
void RunEquivalenceSchedule(const LiftedEventModel* model, size_t m,
                            uint64_t seed) {
  Rng rng(seed);
  const QpSolver solver;
  ReleaseStepContext context({model}, &solver);
  const PrivacyQuantifier cold(model, /*normalize_emissions=*/true);
  const double epsilon = 0.4;

  std::vector<linalg::Vector> history;
  const int horizon = model->event_end() + 4;
  for (int t = 1; t <= horizon; ++t) {
    for (int cand = 0; cand < 2; ++cand) {
      const linalg::Vector column =
          testing::RandomSparseEmissionColumn(m, 4, rng);

      const TheoremVectors cached = context.CandidateVectors(0, column);
      history.push_back(column);
      const TheoremVectors reference = cold.ComputeVectors(history);
      ExpectVectorsNear(cached, reference, 1e-9);

      const ReleaseCheckOutcome outcome =
          context.CheckCandidate(column, epsilon, /*qp_threshold_seconds=*/-1.0);
      const PrivacyCheckResult cold_check = cold.CheckArbitraryPrior(
          reference, epsilon, solver, Deadline::Infinite());
      ASSERT_EQ(outcome.per_model.size(), 1u);
      EXPECT_EQ(outcome.per_model[0].satisfied, cold_check.satisfied)
          << "t=" << t << " cand=" << cand;
      EXPECT_NEAR(outcome.per_model[0].max_condition15,
                  cold_check.max_condition15, 1e-9);
      EXPECT_NEAR(outcome.per_model[0].max_condition16,
                  cold_check.max_condition16, 1e-9);
      history.pop_back();

      if (cand == 1) {
        context.Commit(column);
        history.push_back(column);
      }
    }
  }
  EXPECT_EQ(context.committed_steps(), horizon);
  // The schedule must actually exercise the incremental engine (unless the
  // CI cold-path matrix forced the cache off, in which case it must not).
  const ReleaseStepDiagnostics& d = context.diagnostics();
  if (CacheForcedOffByEnv()) {
    EXPECT_GT(d.cold_checks, 0);
    EXPECT_EQ(d.cached_checks, 0);
    EXPECT_EQ(d.prefix_extensions, 0);
  } else {
    EXPECT_GT(d.cached_checks, 0);
    EXPECT_EQ(d.cold_checks, 0);
    EXPECT_GT(d.prefix_extensions, 0);
  }
}

TEST(ReleaseStepContextTest, CachedMatchesColdTwoWorldPresence) {
  Rng rng(101);
  const size_t m = 24;
  std::vector<geo::Region> regions;
  for (int i = 0; i < 3; ++i) regions.push_back(testing::RandomRegion(m, rng));
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);  // window [2, 4]
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  RunEquivalenceSchedule(&model, m, 1234);
}

TEST(ReleaseStepContextTest, CachedMatchesColdTwoWorldWindowAtStart) {
  // Window starting at t = 1 exercises the split LiftInitial/ContractColumn
  // weights in the cached contraction rows.
  Rng rng(77);
  const size_t m = 12;
  std::vector<geo::Region> regions;
  for (int i = 0; i < 2; ++i) regions.push_back(testing::RandomRegion(m, rng));
  const auto ev = std::make_shared<PresenceEvent>(regions, 1);  // window [1, 2]
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  RunEquivalenceSchedule(&model, m, 4321);
}

TEST(ReleaseStepContextTest, CachedMatchesColdAutomatonWorld) {
  Rng rng(55);
  const size_t m = 9;
  const markov::TransitionMatrix chain = testing::RandomTransition(m, rng);
  const auto expr = event::BoolExpr::Or(
      event::BoolExpr::Pred(2, 3),
      event::BoolExpr::And(event::BoolExpr::Pred(3, 4),
                           event::BoolExpr::Pred(4, 7)));
  auto model = AutomatonWorldModel::Create(
      markov::TransitionSchedule::Homogeneous(chain), *expr);
  ASSERT_TRUE(model.ok()) << model.status();
  RunEquivalenceSchedule(model.value().get(), m, 999);
}

TEST(ReleaseStepContextTest, DenseFirstColumnFallsBackToColdChain) {
  Rng rng(202);
  const size_t m = 10;
  std::vector<geo::Region> regions{testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng)};
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  const QpSolver solver;
  ReleaseStepContext context({&model}, &solver);
  const PrivacyQuantifier cold(&model, true);

  std::vector<linalg::Vector> history;
  for (int t = 1; t <= 5; ++t) {
    const linalg::Vector column = testing::RandomEmissionColumn(m, rng);
    const TheoremVectors cached = context.CandidateVectors(0, column);
    history.push_back(column);
    const TheoremVectors reference = cold.ComputeVectors(history);
    // After the first (dense) commit this is the identical cold code path;
    // at t = 1 the direct contraction form differs only by rounding.
    ExpectVectorsNear(cached, reference, 1e-12);
    context.Commit(column);
  }
  EXPECT_GT(context.diagnostics().cold_checks, 0);
}

TEST(ReleaseStepContextTest, PrefixCacheOptOutMatchesCachedResults) {
  Rng rng(303);
  const size_t m = 16;
  std::vector<geo::Region> regions{testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng)};
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  const QpSolver solver;
  ReleaseStepOptions off;
  off.max_cache_support = 0;
  ReleaseStepContext cached_ctx({&model}, &solver);
  ReleaseStepContext cold_ctx({&model}, &solver, true, off);

  Rng col_rng(404);
  for (int t = 1; t <= 6; ++t) {
    const linalg::Vector column =
        testing::RandomSparseEmissionColumn(m, 5, col_rng);
    ExpectVectorsNear(cached_ctx.CandidateVectors(0, column),
                      cold_ctx.CandidateVectors(0, column), 1e-9);
    cached_ctx.Commit(column);
    cold_ctx.Commit(column);
  }
  if (!CacheForcedOffByEnv()) {
    EXPECT_GT(cached_ctx.diagnostics().cached_checks, 0);
  }
  EXPECT_GT(cold_ctx.diagnostics().cold_checks, 0);
}

// Mirrors RunEquivalenceSchedule for DENSE first columns: the dense-prefix
// scheme (m row chains, fused replicate-and-dot candidate kernels) must
// agree with the cold recompute-from-t=1 chain at every prefix — Theorem
// vectors to ≤ 1e-9, QP condition maxima to ≤ 1e-9, decisions exactly.
void RunDenseEquivalenceSchedule(const LiftedEventModel* model, size_t m,
                                 uint64_t seed) {
  Rng rng(seed);
  const QpSolver solver;
  ReleaseStepOptions options;
  options.max_cache_support = 4;  // every random dense column overflows this
  ReleaseStepContext context({model}, &solver, true, options);
  context.SetHorizonHint(static_cast<int>(2 * m));
  const PrivacyQuantifier cold(model, /*normalize_emissions=*/true);
  const double epsilon = 0.4;

  std::vector<linalg::Vector> history;
  const int horizon = model->event_end() + 4;
  for (int t = 1; t <= horizon; ++t) {
    for (int cand = 0; cand < 2; ++cand) {
      const linalg::Vector column = testing::RandomEmissionColumn(m, rng);

      const TheoremVectors cached = context.CandidateVectors(0, column);
      history.push_back(column);
      const TheoremVectors reference = cold.ComputeVectors(history);
      ExpectVectorsNear(cached, reference, 1e-9);

      const ReleaseCheckOutcome outcome =
          context.CheckCandidate(column, epsilon, /*qp_threshold_seconds=*/-1.0);
      const PrivacyCheckResult cold_check = cold.CheckArbitraryPrior(
          reference, epsilon, solver, Deadline::Infinite());
      ASSERT_EQ(outcome.per_model.size(), 1u);
      EXPECT_EQ(outcome.per_model[0].satisfied, cold_check.satisfied)
          << "t=" << t << " cand=" << cand;
      EXPECT_NEAR(outcome.per_model[0].max_condition15,
                  cold_check.max_condition15, 1e-9);
      EXPECT_NEAR(outcome.per_model[0].max_condition16,
                  cold_check.max_condition16, 1e-9);
      history.pop_back();

      if (cand == 1) {
        context.Commit(column);
        history.push_back(column);
      }
    }
  }
  EXPECT_EQ(context.committed_steps(), horizon);
  const ReleaseStepDiagnostics& d = context.diagnostics();
  if (CacheForcedOffByEnv()) {
    EXPECT_GT(d.cold_checks, 0);
    EXPECT_EQ(d.dense_prefix_checks, 0);
  } else {
    EXPECT_GT(d.dense_prefix_checks, 0);
    EXPECT_EQ(d.cold_checks, 0);
    EXPECT_GT(d.prefix_extensions, 0);
    EXPECT_EQ(d.dense_fallbacks, 0);  // the scheme engaged, nothing fell back
  }
}

TEST(ReleaseStepDensePrefixTest, DenseMatchesColdTwoWorldPresence) {
  Rng rng(606);
  const size_t m = 18;
  std::vector<geo::Region> regions;
  for (int i = 0; i < 3; ++i) regions.push_back(testing::RandomRegion(m, rng));
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);  // window [2, 4]
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  RunDenseEquivalenceSchedule(&model, m, 2718);
}

TEST(ReleaseStepDensePrefixTest, DenseMatchesColdWindowAtStart) {
  Rng rng(607);
  const size_t m = 10;
  std::vector<geo::Region> regions;
  for (int i = 0; i < 2; ++i) regions.push_back(testing::RandomRegion(m, rng));
  const auto ev = std::make_shared<PresenceEvent>(regions, 1);  // window [1, 2]
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  RunDenseEquivalenceSchedule(&model, m, 8182);
}

TEST(ReleaseStepDensePrefixTest, DenseMatchesColdAutomatonWorld) {
  Rng rng(608);
  const size_t m = 8;
  const markov::TransitionMatrix chain = testing::RandomTransition(m, rng);
  const auto expr = event::BoolExpr::Or(
      event::BoolExpr::Pred(2, 3),
      event::BoolExpr::And(event::BoolExpr::Pred(3, 4),
                           event::BoolExpr::Pred(4, 6)));
  auto model = AutomatonWorldModel::Create(
      markov::TransitionSchedule::Homogeneous(chain), *expr);
  ASSERT_TRUE(model.ok()) << model.status();
  RunDenseEquivalenceSchedule(model.value().get(), m, 2929);
}

TEST(ReleaseStepDensePrefixTest, MaxCacheSupportBoundaryIsInclusive) {
  // Pinned semantics: |support| == max_cache_support still uses the SPARSE
  // rows; |support| == max_cache_support + 1 is dense (dense-prefix scheme
  // or cold fallback). Two models verify the dense_fallbacks counter
  // increments once per CHECK, not once per model.
  Rng rng(701);
  const size_t m = 24;
  std::vector<geo::Region> regions{testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng)};
  const auto ev_a = std::make_shared<PresenceEvent>(regions, 2);
  const auto ev_b = std::make_shared<PresenceEvent>(
      std::vector<geo::Region>{regions[1], regions[0]}, 2);
  const markov::TransitionMatrix chain = testing::RandomTransition(m, rng);
  const TwoWorldModel model_a(chain, ev_a);
  const TwoWorldModel model_b(chain, ev_b);
  const QpSolver solver;

  ReleaseStepOptions options;
  options.max_cache_support = 5;

  Rng col_rng(702);
  const linalg::Vector at_boundary =
      testing::RandomSparseEmissionColumn(m, 5, col_rng);
  const linalg::Vector over_boundary =
      testing::RandomSparseEmissionColumn(m, 6, col_rng);

  // |support| == max_cache_support → sparse-cached.
  {
    ReleaseStepContext context({&model_a, &model_b}, &solver, true, options);
    context.Commit(at_boundary);
    context.CheckCandidate(at_boundary, 0.4, -1.0);
    if (!CacheForcedOffByEnv()) {
      EXPECT_GT(context.diagnostics().cached_checks, 0);
      EXPECT_EQ(context.diagnostics().cold_checks, 0);
      EXPECT_EQ(context.diagnostics().dense_fallbacks, 0);
    }
  }
  // |support| == max_cache_support + 1, no horizon hint → cold fallback,
  // counted exactly once per check (two checks → 2, despite two models).
  if (!CacheForcedOffByEnv()) {
    ReleaseStepContext context({&model_a, &model_b}, &solver, true, options);
    context.Commit(over_boundary);
    context.CheckCandidate(over_boundary, 0.4, -1.0);
    context.CheckCandidate(over_boundary, 0.4, -1.0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 2);
    EXPECT_EQ(context.diagnostics().cached_checks, 0);
    EXPECT_GT(context.diagnostics().cold_checks, 0);
  }
  // Same over-boundary column with a horizon hint at the 2m break-even → no
  // fallback, served by the dense row family.
  if (!CacheForcedOffByEnv()) {
    ReleaseStepContext context({&model_a, &model_b}, &solver, true, options);
    context.SetHorizonHint(static_cast<int>(2 * m));
    context.Commit(over_boundary);
    context.CheckCandidate(over_boundary, 0.4, -1.0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 0);
    EXPECT_GT(context.diagnostics().dense_prefix_checks, 0);
    EXPECT_EQ(context.diagnostics().cold_checks, 0);
  }
}

TEST(ReleaseStepDensePrefixTest, AutoPolicyNeedsTheHorizonToClearBreakEven) {
  if (CacheForcedOffByEnv()) GTEST_SKIP() << "cache forced off by env";
  Rng rng(703);
  const size_t m = 12;
  std::vector<geo::Region> regions{testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng)};
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  const QpSolver solver;
  ReleaseStepOptions options;
  options.max_cache_support = 4;
  Rng col_rng(704);
  const linalg::Vector dense = testing::RandomEmissionColumn(m, col_rng);

  // No hint → cold fallback.
  {
    ReleaseStepContext context({&model}, &solver, true, options);
    context.Commit(dense);
    context.CheckCandidate(dense, 0.4, -1.0);
    EXPECT_EQ(context.diagnostics().dense_prefix_checks, 0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 1);
  }
  // Hint below the 2m break-even → still cold.
  {
    ReleaseStepContext context({&model}, &solver, true, options);
    context.SetHorizonHint(static_cast<int>(2 * m) - 1);
    context.Commit(dense);
    context.CheckCandidate(dense, 0.4, -1.0);
    EXPECT_EQ(context.diagnostics().dense_prefix_checks, 0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 1);
  }
  // Hint at the break-even → the dense-prefix family engages.
  {
    ReleaseStepContext context({&model}, &solver, true, options);
    context.SetHorizonHint(static_cast<int>(2 * m));
    context.Commit(dense);
    context.CheckCandidate(dense, 0.4, -1.0);
    EXPECT_GT(context.diagnostics().dense_prefix_checks, 0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 0);
  }
}

TEST(ReleaseStepDensePrefixTest, EnvOverridesMaxCacheSupport) {
  // PRISTE_MAX_CACHE_SUPPORT overrides the knob at construction: 0 forces
  // the cold chain even for sparse columns and a horizon hint that would
  // engage the dense rows; a positive value widens the sparse-row budget.
  const char* saved = std::getenv("PRISTE_MAX_CACHE_SUPPORT");
  const std::string saved_value = saved != nullptr ? saved : "";
  Rng rng(705);
  const size_t m = 16;
  std::vector<geo::Region> regions{testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng)};
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  const QpSolver solver;
  Rng col_rng(706);
  const linalg::Vector sparse_col =
      testing::RandomSparseEmissionColumn(m, 3, col_rng);

  setenv("PRISTE_MAX_CACHE_SUPPORT", "0", 1);
  {
    ReleaseStepContext context({&model}, &solver);
    context.SetHorizonHint(static_cast<int>(2 * m));
    context.CheckCandidate(sparse_col, 0.4, -1.0);  // even t=1 runs cold
    context.Commit(sparse_col);
    context.CheckCandidate(sparse_col, 0.4, -1.0);
    EXPECT_EQ(context.diagnostics().cached_checks, 0);
    EXPECT_EQ(context.diagnostics().dense_prefix_checks, 0);
    EXPECT_GT(context.diagnostics().cold_checks, 0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 0);  // off, not fallen back
  }
  setenv("PRISTE_MAX_CACHE_SUPPORT", "8", 1);
  {
    ReleaseStepOptions options;
    options.max_cache_support = 1;  // env widens it back to 8
    ReleaseStepContext context({&model}, &solver, true, options);
    context.Commit(sparse_col);
    context.CheckCandidate(sparse_col, 0.4, -1.0);
    EXPECT_GT(context.diagnostics().cached_checks, 0);
    EXPECT_EQ(context.diagnostics().cold_checks, 0);
  }
  setenv("PRISTE_MAX_CACHE_SUPPORT", "7x", 1);  // invalid → knob untouched
  {
    ReleaseStepOptions options;
    options.max_cache_support = 2;
    ReleaseStepContext context({&model}, &solver, true, options);
    context.Commit(sparse_col);  // support 3 > 2 → dense path decision
    context.CheckCandidate(sparse_col, 0.4, -1.0);
    EXPECT_EQ(context.diagnostics().cached_checks, 0);
    EXPECT_EQ(context.diagnostics().dense_fallbacks, 1);  // no hint
  }

  if (saved != nullptr) {
    setenv("PRISTE_MAX_CACHE_SUPPORT", saved_value.c_str(), 1);
  } else {
    unsetenv("PRISTE_MAX_CACHE_SUPPORT");
  }
}

TEST(ReleaseStepFramePolicyTest, DenseToSparseTransitionKeepsColdAgreement) {
  // Dense→sparse candidate transitions: a dense first column engages the
  // dense-prefix family (full-support Theorem vectors), then the candidates
  // alternate with sparse ones of drifting support. Every check must still
  // match the cold chain.
  Rng rng(811);
  const size_t m = 14;
  std::vector<geo::Region> regions{testing::RandomRegion(m, rng),
                                   testing::RandomRegion(m, rng)};
  const auto ev = std::make_shared<PresenceEvent>(regions, 2);  // window [2, 3]
  const TwoWorldModel model(testing::RandomTransition(m, rng), ev);
  const QpSolver solver;
  ReleaseStepOptions options;
  options.max_cache_support = 4;
  ReleaseStepContext context({&model}, &solver, true, options);
  context.SetHorizonHint(static_cast<int>(2 * m));
  const PrivacyQuantifier cold(&model, true);

  Rng col_rng(812);
  std::vector<linalg::Vector> history;
  const int horizon = 7;
  for (int t = 1; t <= horizon; ++t) {
    for (int cand = 0; cand < 2; ++cand) {
      // t = 1 commits a dense column; afterwards the candidates alternate
      // dense/sparse with drifting sparse supports.
      const bool dense_candidate = t == 1 || cand == 0;
      const linalg::Vector column =
          dense_candidate ? testing::RandomEmissionColumn(m, col_rng)
                          : testing::RandomSparseEmissionColumn(m, 3, col_rng);
      const TheoremVectors cached = context.CandidateVectors(0, column);
      history.push_back(column);
      const TheoremVectors reference = cold.ComputeVectors(history);
      ExpectVectorsNear(cached, reference, 1e-9);
      const auto outcome = context.CheckCandidate(column, 0.4, -1.0);
      const auto cold_check = cold.CheckArbitraryPrior(
          reference, 0.4, solver, Deadline::Infinite());
      EXPECT_EQ(outcome.per_model[0].satisfied, cold_check.satisfied)
          << "t=" << t << " cand=" << cand;
      EXPECT_NEAR(outcome.per_model[0].max_condition15,
                  cold_check.max_condition15, 1e-9);
      EXPECT_NEAR(outcome.per_model[0].max_condition16,
                  cold_check.max_condition16, 1e-9);
      history.pop_back();
      if (cand == 1) {
        context.Commit(column);
        history.push_back(column);
      }
    }
  }
  if (!CacheForcedOffByEnv()) {
    EXPECT_GT(context.diagnostics().dense_prefix_checks, 0);
  }
}

PristeOptions DeltaLocOptions(bool accelerated) {
  PristeOptions options;
  options.epsilon = 0.6;
  options.initial_alpha = 0.3;
  options.qp_threshold_seconds = 5.0;
  if (!accelerated) options.release.max_cache_support = 0;
  return options;
}

TEST(ReleaseStepContextTest, FullDeltaLocHalvingRunMatchesColdConfiguration) {
  // End-to-end acceptance: a full PristeDeltaLoc run (halvings, posterior
  // updates, conservative-release bookkeeping) must release the identical
  // trajectory with the engine accelerated vs fully cold.
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev =
      std::make_shared<PresenceEvent>(geo::Region(16, {0, 1, 4, 5}), 3, 4);
  const linalg::Vector pi = linalg::Vector::UniformProbability(16);
  const markov::MarkovChain chain(mobility.transition(), pi);
  Rng truth_rng(11);
  const geo::Trajectory truth(chain.Sample(6, truth_rng));

  const PristeDeltaLoc accelerated(grid, mobility.transition(), {ev}, 0.2, pi,
                                   DeltaLocOptions(true));
  const PristeDeltaLoc cold(grid, mobility.transition(), {ev}, 0.2, pi,
                            DeltaLocOptions(false));
  Rng rng_a(17);
  Rng rng_b(17);
  const auto result_a = accelerated.Run(truth, rng_a);
  const auto result_b = cold.Run(truth, rng_b);
  ASSERT_TRUE(result_a.ok()) << result_a.status();
  ASSERT_TRUE(result_b.ok()) << result_b.status();
  EXPECT_EQ(result_a->released.states(), result_b->released.states());
  ASSERT_EQ(result_a->steps.size(), result_b->steps.size());
  for (size_t i = 0; i < result_a->steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(result_a->steps[i].released_alpha,
                     result_b->steps[i].released_alpha)
        << "t=" << i + 1;
    EXPECT_EQ(result_a->steps[i].halvings, result_b->steps[i].halvings);
  }
}

TEST(ReleaseStepContextTest, FullGeoIndRunMatchesColdConfiguration) {
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev =
      std::make_shared<PresenceEvent>(geo::Region(16, {5, 6}), 2, 3);
  const PristeGeoInd accelerated(grid, mobility.transition(), {ev},
                                 DeltaLocOptions(true));
  const PristeGeoInd cold(grid, mobility.transition(), {ev},
                          DeltaLocOptions(false));
  const geo::Trajectory truth({1, 2, 6, 10});
  Rng rng_a(29);
  Rng rng_b(29);
  const auto result_a = accelerated.Run(truth, rng_a);
  const auto result_b = cold.Run(truth, rng_b);
  ASSERT_TRUE(result_a.ok()) << result_a.status();
  ASSERT_TRUE(result_b.ok()) << result_b.status();
  EXPECT_EQ(result_a->released.states(), result_b->released.states());
  ASSERT_EQ(result_a->steps.size(), result_b->steps.size());
  for (size_t i = 0; i < result_a->steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(result_a->steps[i].released_alpha,
                     result_b->steps[i].released_alpha)
        << "t=" << i + 1;
  }
  // GeoInd columns are dense and the horizon (4) is far below the
  // dense-prefix break-even (2m = 32), so from t = 2 on the engine must
  // have chosen the cold chain and recorded the fallback.
  EXPECT_GT(result_a->release_diagnostics.cold_checks, 0);
  EXPECT_EQ(result_a->release_diagnostics.prefix_extensions, 0);
  if (!CacheForcedOffByEnv()) {
    EXPECT_GT(result_a->release_diagnostics.dense_fallbacks, 0);
  }
}

TEST(ReleaseStepDensePrefixTest, FullGeoIndRunWithDensePrefixMatchesCold) {
  // End-to-end acceptance for the dense-prefix scheme: a full PristeGeoInd
  // halving run (dense planar-Laplace columns) must release the identical
  // trajectory with the dense row family engaged vs the fully cold engine.
  const geo::Grid grid(4, 4, 1.0);
  const geo::GaussianGridModel mobility(grid, 1.0);
  const auto ev =
      std::make_shared<PresenceEvent>(geo::Region(16, {5, 6}), 2, 3);
  const PristeGeoInd accelerated(grid, mobility.transition(), {ev},
                                 DeltaLocOptions(true));
  const PristeGeoInd cold(grid, mobility.transition(), {ev},
                          DeltaLocOptions(false));
  // The driver passes the trajectory length as the horizon hint, so the
  // dense rows engage from 2m = 32 steps on.
  const markov::MarkovChain chain(mobility.transition(),
                                  linalg::Vector::UniformProbability(16));
  Rng truth_rng(37);
  const geo::Trajectory truth(chain.Sample(2 * 16 + 2, truth_rng));
  Rng rng_a(31);
  Rng rng_b(31);
  const auto result_a = accelerated.Run(truth, rng_a);
  const auto result_b = cold.Run(truth, rng_b);
  ASSERT_TRUE(result_a.ok()) << result_a.status();
  ASSERT_TRUE(result_b.ok()) << result_b.status();
  EXPECT_EQ(result_a->released.states(), result_b->released.states());
  ASSERT_EQ(result_a->steps.size(), result_b->steps.size());
  for (size_t i = 0; i < result_a->steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(result_a->steps[i].released_alpha,
                     result_b->steps[i].released_alpha)
        << "t=" << i + 1;
    EXPECT_EQ(result_a->steps[i].halvings, result_b->steps[i].halvings);
  }
  if (!CacheForcedOffByEnv()) {
    EXPECT_GT(result_a->release_diagnostics.dense_prefix_checks, 0);
    EXPECT_GT(result_a->release_diagnostics.prefix_extensions, 0);
    EXPECT_EQ(result_a->release_diagnostics.cold_checks, 0);
  }
}

}  // namespace
}  // namespace priste::core
