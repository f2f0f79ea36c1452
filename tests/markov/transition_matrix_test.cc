#include "priste/markov/transition_matrix.h"

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace priste::markov {
namespace {

TEST(TransitionMatrixTest, CreateValidatesShape) {
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix(0, 0)).ok());
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix(2, 3)).ok());
}

TEST(TransitionMatrixTest, CreateValidatesRows) {
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix{{0.5, 0.6}, {0.5, 0.5}}).ok());
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix{{-0.2, 1.2}, {0.5, 0.5}}).ok());
  EXPECT_TRUE(TransitionMatrix::Create(linalg::Matrix{{0.3, 0.7}, {1.0, 0.0}}).ok());
}

TEST(TransitionMatrixTest, CreateRejectsNonFiniteEntries) {
  // NaN compares false against every validation guard; without an explicit
  // finiteness check a NaN row passes and poisons every downstream kernel.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix{{nan, 1.0}, {0.5, 0.5}}).ok());
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix{{inf, 0.0}, {0.5, 0.5}}).ok());
  EXPECT_FALSE(TransitionMatrix::Create(linalg::Matrix{{-inf, 1.0}, {0.5, 0.5}}).ok());
}

TEST(TransitionMatrixTest, PaperExampleMatrixIsValid) {
  // Equation (2) of the paper.
  const auto m = TransitionMatrix::Create(linalg::Matrix{
      {0.1, 0.2, 0.7}, {0.4, 0.1, 0.5}, {0.0, 0.1, 0.9}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_states(), 3u);
  EXPECT_DOUBLE_EQ((*m)(2, 2), 0.9);
}

TEST(TransitionMatrixTest, UniformAndIdentity) {
  const TransitionMatrix u = TransitionMatrix::Uniform(4);
  EXPECT_DOUBLE_EQ(u(0, 3), 0.25);
  const TransitionMatrix i = TransitionMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(1, 0), 0.0);
}

TEST(TransitionMatrixTest, PropagatePreservesMass) {
  Rng rng(5);
  const TransitionMatrix m = testing::RandomTransition(6, rng);
  const linalg::Vector p = testing::RandomProbability(6, rng);
  const linalg::Vector next = m.Propagate(p);
  EXPECT_NEAR(next.Sum(), 1.0, 1e-12);
  EXPECT_TRUE(next.AllInRange(0.0, 1.0));
}

TEST(TransitionMatrixTest, PropagateStepsComposes) {
  Rng rng(7);
  const TransitionMatrix m = testing::RandomTransition(5, rng);
  const linalg::Vector p = testing::RandomProbability(5, rng);
  const linalg::Vector two_steps = m.Propagate(m.Propagate(p));
  EXPECT_LT(m.PropagateSteps(p, 2).Minus(two_steps).MaxAbs(), 1e-14);
  EXPECT_LT(m.PropagateSteps(p, 0).Minus(p).MaxAbs(), 1e-15);
}

TEST(TransitionMatrixTest, TinyNegativesClampBeforeRenormalization) {
  // A within-tolerance negative entry must be zeroed BEFORE the row sum used
  // for renormalization is computed, so the row lands on exactly 1 — the old
  // order renormalized by 1 − |negative| and left the row sum slightly off.
  linalg::Matrix m{{1.0, -1e-9, 0.0}, {0.2, 0.3, 0.5}, {0.0, 0.0, 1.0}};
  const auto t = TransitionMatrix::Create(std::move(m));
  ASSERT_TRUE(t.ok());
  for (size_t r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GE((*t)(r, c), 0.0);
      sum += (*t)(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-15) << "row " << r;
  }
  EXPECT_DOUBLE_EQ((*t)(0, 0), 1.0);
  EXPECT_DOUBLE_EQ((*t)(0, 1), 0.0);
}

// A 4-neighbour (von Neumann) random walk on a width×height grid — the
// sparse-chain shape the CSR fast path exists for.
TransitionMatrix GridRandomWalk(int width, int height, bool allow_sparse) {
  const size_t m = static_cast<size_t>(width * height);
  linalg::Matrix t(m, m);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const size_t cell = static_cast<size_t>(y * width + x);
      std::vector<size_t> neighbors = {cell};
      if (x > 0) neighbors.push_back(cell - 1);
      if (x + 1 < width) neighbors.push_back(cell + 1);
      if (y > 0) neighbors.push_back(cell - static_cast<size_t>(width));
      if (y + 1 < height) neighbors.push_back(cell + static_cast<size_t>(width));
      for (const size_t n : neighbors) {
        t(cell, n) = 1.0 / static_cast<double>(neighbors.size());
      }
    }
  }
  auto result = TransitionMatrix::Create(std::move(t), 1e-6, allow_sparse);
  PRISTE_CHECK(result.ok());
  return std::move(result).value();
}

TEST(TransitionMatrixTest, SparseViewDetectedForGridWalk) {
  const TransitionMatrix sparse = GridRandomWalk(6, 6, /*allow_sparse=*/true);
  ASSERT_TRUE(sparse.has_sparse());
  EXPECT_LE(sparse.sparse()->density(), TransitionMatrix::kSparseDensityThreshold);
  // Dense chains and force-dense construction carry no view.
  EXPECT_FALSE(TransitionMatrix::Uniform(36).has_sparse());
  EXPECT_FALSE(GridRandomWalk(6, 6, /*allow_sparse=*/false).has_sparse());
}

TEST(TransitionMatrixTest, SparseAndDensePropagateAgree) {
  const TransitionMatrix sparse = GridRandomWalk(7, 5, /*allow_sparse=*/true);
  const TransitionMatrix dense = GridRandomWalk(7, 5, /*allow_sparse=*/false);
  ASSERT_TRUE(sparse.has_sparse());
  Rng rng(21);
  const linalg::Vector p = testing::RandomProbability(35, rng);
  EXPECT_LT(sparse.Propagate(p).Minus(dense.Propagate(p)).MaxAbs(), 1e-12);
  EXPECT_LT(sparse.PropagateSteps(p, 6).Minus(dense.PropagateSteps(p, 6)).MaxAbs(),
            1e-12);
  linalg::Vector backward_sparse(35), backward_dense(35);
  sparse.BackwardSpan(p.data(), backward_sparse.data());
  dense.BackwardSpan(p.data(), backward_dense.data());
  EXPECT_LT(backward_sparse.Minus(backward_dense).MaxAbs(), 1e-12);
}

TEST(TransitionMatrixTest, BackwardSpansMatchSeparateBackwardSpans) {
  // One pass for up to four vectors must reproduce the lone products bit for
  // bit, on the dense (DotRows) and the CSR (per-vector MatVecSpan) paths —
  // also when inputs repeat, which are computed once and copied.
  Rng rng(29);
  // Each pattern lists which random vector fills each input.
  const std::vector<std::vector<size_t>> patterns = {
      {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {0, 0}, {0, 1, 0, 0}, {1, 0, 1},
      {2, 2, 2, 2}};
  for (const bool allow_sparse : {false, true}) {
    const TransitionMatrix chain = GridRandomWalk(7, 5, allow_sparse);
    ASSERT_EQ(chain.has_sparse(), allow_sparse);
    const size_t m = chain.num_states();
    std::vector<linalg::Vector> vectors;
    for (int j = 0; j < 4; ++j) {
      vectors.push_back(testing::RandomProbability(m, rng));
    }
    for (const std::vector<size_t>& pattern : patterns) {
      for (const bool shared_buffers : {false, true}) {
        const size_t count = pattern.size();
        // Repeats either sit in buffers of their own or reuse one pointer.
        std::vector<linalg::Vector> copies;
        for (const size_t v : pattern) copies.push_back(vectors[v]);
        std::vector<linalg::Vector> fused(count, linalg::Vector(m));
        std::vector<const double*> ip;
        std::vector<double*> op;
        for (size_t j = 0; j < count; ++j) {
          ip.push_back(shared_buffers ? vectors[pattern[j]].data()
                                      : copies[j].data());
          op.push_back(fused[j].data());
        }
        chain.BackwardSpans(ip.data(), op.data(), count);
        for (size_t j = 0; j < count; ++j) {
          linalg::Vector lone(m);
          chain.BackwardSpan(vectors[pattern[j]].data(), lone.data());
          EXPECT_EQ(std::memcmp(fused[j].data(), lone.data(), m * sizeof(double)),
                    0)
              << "csr=" << allow_sparse << " count=" << count << " j=" << j
              << " shared=" << shared_buffers;
        }
      }
    }
  }
}

// The count contract holds in Release builds too: past it the dense
// kernel's scalar and AVX2 paths fill different outputs.
TEST(TransitionMatrixDeathTest, BackwardSpansRejectsCountsOutsideOneToFour) {
  for (const bool allow_sparse : {false, true}) {
    const TransitionMatrix chain = GridRandomWalk(7, 5, allow_sparse);
    ASSERT_EQ(chain.has_sparse(), allow_sparse);
    const size_t m = chain.num_states();
    std::vector<linalg::Vector> in(5, linalg::Vector(m));
    std::vector<linalg::Vector> out(5, linalg::Vector(m));
    std::vector<const double*> ip;
    std::vector<double*> op;
    for (size_t j = 0; j < 5; ++j) {
      ip.push_back(in[j].data());
      op.push_back(out[j].data());
    }
    EXPECT_DEATH(chain.BackwardSpans(ip.data(), op.data(), 0), "count");
    EXPECT_DEATH(chain.BackwardSpans(ip.data(), op.data(), 5), "count");
  }
}

TEST(TransitionMatrixTest, RowDistributionIsProbability) {
  Rng rng(11);
  const TransitionMatrix m = testing::RandomTransition(4, rng);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(m.RowDistribution(r).Sum(), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace priste::markov
