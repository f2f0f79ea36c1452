#include "priste/linalg/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "priste/common/random.h"

namespace priste::linalg::kernels {
namespace {

std::vector<double> RandomSpan(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-1.0, 1.0);
  return v;
}

// Restores the dispatch table on scope exit so a failing assertion cannot
// leak a forced-scalar table into later tests.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) : previous_(SetSimdEnabledForTest(enabled)) {}
  ~ScopedSimd() { SetSimdEnabledForTest(previous_); }

 private:
  bool previous_;
};

TEST(KernelsTest, SumKnownValues) {
  const double x[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Sum(x, 5), 15.0);
  EXPECT_DOUBLE_EQ(Sum(x, 0), 0.0);
}

TEST(KernelsTest, DotKnownValues) {
  const double a[] = {1.0, 2.0, 3.0};
  const double b[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
}

TEST(KernelsTest, DotHadamardKnownValues) {
  const double a[] = {1.0, 2.0};
  const double b[] = {3.0, 4.0};
  const double c[] = {5.0, 6.0};
  EXPECT_DOUBLE_EQ(DotHadamard(a, b, c, 2), 15.0 + 48.0);
}

TEST(KernelsTest, AxpyScaleHadamard) {
  double y[] = {1.0, 1.0, 1.0};
  const double x[] = {1.0, 2.0, 3.0};
  Axpy(2.0, x, y, 3);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 7.0);
  Scale(y, 0.5, 3);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  HadamardInPlace(x, y, 3);
  EXPECT_DOUBLE_EQ(y[2], 3.5 * 3.0);
  double out[3];
  HadamardInto(x, x, out, 3);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
}

TEST(KernelsTest, GatherScatterKnownValues) {
  const double values[] = {2.0, 3.0};
  const size_t cols[] = {1, 4};
  const double x[] = {0.0, 10.0, 0.0, 0.0, 100.0};
  EXPECT_DOUBLE_EQ(GatherDot(values, cols, 2, x), 320.0);
  double out[5] = {0.0};
  ScatterAxpy(2.0, values, cols, 2, out);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  EXPECT_DOUBLE_EQ(out[4], 6.0);
}

TEST(KernelsTest, ReplicateDotMatchesMaterializedReplication) {
  Rng rng(7);
  const size_t blocks = 3, m = 11;
  const std::vector<double> row = RandomSpan(blocks * m, rng);
  const std::vector<double> cand = RandomSpan(m, rng);
  const std::vector<double> seed = RandomSpan(blocks * m, rng);
  double expect_plain = 0.0, expect_seeded = 0.0;
  for (size_t q = 0; q < blocks; ++q) {
    for (size_t j = 0; j < m; ++j) {
      expect_plain += row[q * m + j] * cand[j];
      expect_seeded += row[q * m + j] * cand[j] * seed[q * m + j];
    }
  }
  EXPECT_NEAR(ReplicateDot(row.data(), blocks, m, cand.data()), expect_plain,
              1e-12);
  double seeded = 0.0, plain = 0.0;
  ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(), &seeded,
                   &plain);
  EXPECT_NEAR(seeded, expect_seeded, 1e-12);
  EXPECT_NEAR(plain, expect_plain, 1e-12);
}

// The central contract: whatever path the host dispatches, every kernel's
// result is BIT-identical to the scalar path — sizes straddle the vector
// width so full blocks, tails, and sub-width spans are all covered. On a
// host without AVX2 both runs use the scalar table and the test is trivially
// green.
TEST(KernelsTest, ScalarAndSimdPathsAreBitIdentical) {
  Rng rng(123);
  for (const size_t n : {0ul, 1ul, 3ul, 4ul, 7ul, 8ul, 15ul, 16ul, 33ul, 100ul}) {
    const std::vector<double> a = RandomSpan(n, rng);
    const std::vector<double> b = RandomSpan(n, rng);
    const std::vector<double> c = RandomSpan(n, rng);
    std::vector<size_t> cols(n);
    for (size_t i = 0; i < n; ++i) cols[i] = (i * 7) % (n > 0 ? n : 1);

    double sum_s, dot_s, dh_s, gd_s;
    std::vector<double> axpy_s = a, scale_s = a, hip_s = a, hi_s(n), sc_s(n, 0.0);
    {
      ScopedSimd scalar(false);
      ASSERT_FALSE(SimdActive());
      sum_s = Sum(a.data(), n);
      dot_s = Dot(a.data(), b.data(), n);
      dh_s = DotHadamard(a.data(), b.data(), c.data(), n);
      gd_s = GatherDot(a.data(), cols.data(), n, b.data());
      Axpy(1.7, b.data(), axpy_s.data(), n);
      Scale(scale_s.data(), 0.3, n);
      HadamardInPlace(b.data(), hip_s.data(), n);
      HadamardInto(a.data(), b.data(), hi_s.data(), n);
      ScatterAxpy(1.3, a.data(), cols.data(), n, sc_s.data());
    }
    ScopedSimd simd(true);
    EXPECT_EQ(Sum(a.data(), n), sum_s);
    EXPECT_EQ(Dot(a.data(), b.data(), n), dot_s);
    EXPECT_EQ(DotHadamard(a.data(), b.data(), c.data(), n), dh_s);
    EXPECT_EQ(GatherDot(a.data(), cols.data(), n, b.data()), gd_s);
    std::vector<double> axpy_v = a, scale_v = a, hip_v = a, hi_v(n), sc_v(n, 0.0);
    Axpy(1.7, b.data(), axpy_v.data(), n);
    Scale(scale_v.data(), 0.3, n);
    HadamardInPlace(b.data(), hip_v.data(), n);
    HadamardInto(a.data(), b.data(), hi_v.data(), n);
    ScatterAxpy(1.3, a.data(), cols.data(), n, sc_v.data());
    EXPECT_EQ(axpy_v, axpy_s);
    EXPECT_EQ(scale_v, scale_s);
    EXPECT_EQ(hip_v, hip_s);
    EXPECT_EQ(hi_v, hi_s);
    EXPECT_EQ(sc_v, sc_s);
  }
}

TEST(KernelsTest, ReplicateKernelsAreBitIdenticalAcrossPaths) {
  Rng rng(321);
  for (const size_t m : {1ul, 5ul, 8ul, 13ul, 32ul}) {
    for (const size_t blocks : {1ul, 2ul, 4ul}) {
      const std::vector<double> row = RandomSpan(blocks * m, rng);
      const std::vector<double> cand = RandomSpan(m, rng);
      const std::vector<double> seed = RandomSpan(blocks * m, rng);
      double plain_s, seeded_s, pair_plain_s;
      {
        ScopedSimd scalar(false);
        plain_s = ReplicateDot(row.data(), blocks, m, cand.data());
        ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(),
                         &seeded_s, &pair_plain_s);
      }
      ScopedSimd simd(true);
      EXPECT_EQ(ReplicateDot(row.data(), blocks, m, cand.data()), plain_s);
      double seeded_v, pair_plain_v;
      ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(),
                       &seeded_v, &pair_plain_v);
      EXPECT_EQ(seeded_v, seeded_s);
      EXPECT_EQ(pair_plain_v, pair_plain_s);
    }
  }
}

// DotRows blocks rows × vectors, but every output must keep the exact
// operation sequence of the per-row Dot: row counts straddle the 4- and
// 2-row blocks, lengths straddle the inline threshold and the lane tail.
TEST(KernelsTest, DotRowsMatchesPerRowDotOnBothPaths) {
  Rng rng(99);
  for (const size_t count : {1ul, 2ul, 3ul, 4ul}) {
    for (const size_t nrows : {1ul, 3ul, 4ul, 5ul, 9ul}) {
      for (const size_t n : {3ul, 15ul, 16ul, 17ul, 33ul, 100ul}) {
        // Rows padded to a stride wider than n, so a kernel reading past n
        // or ignoring the stride shows.
        const size_t stride = n + 3;
        const std::vector<double> rows = RandomSpan(nrows * stride, rng);
        std::vector<std::vector<double>> vs;
        std::vector<const double*> vp;
        for (size_t j = 0; j < count; ++j) {
          vs.push_back(RandomSpan(n, rng));
          vp.push_back(vs.back().data());
        }
        const auto run = [&] {
          std::vector<std::vector<double>> outs(count,
                                                std::vector<double>(nrows));
          std::vector<double*> op;
          for (auto& o : outs) op.push_back(o.data());
          DotRows(rows.data(), stride, nrows, vp.data(), count, n, op.data());
          return outs;
        };
        const auto per_row_dot = [&] {
          std::vector<std::vector<double>> outs(count,
                                                std::vector<double>(nrows));
          for (size_t j = 0; j < count; ++j) {
            for (size_t r = 0; r < nrows; ++r) {
              outs[j][r] = Dot(rows.data() + r * stride, vp[j], n);
            }
          }
          return outs;
        };
        std::vector<std::vector<double>> scalar;
        {
          ScopedSimd off(false);
          scalar = run();
          EXPECT_EQ(scalar, per_row_dot())
              << "scalar count=" << count << " nrows=" << nrows << " n=" << n;
        }
        ScopedSimd on(true);
        const auto simd = run();
        EXPECT_EQ(simd, per_row_dot())
            << "simd count=" << count << " nrows=" << nrows << " n=" << n;
        EXPECT_EQ(simd, scalar)
            << "count=" << count << " nrows=" << nrows << " n=" << n;
      }
    }
  }
}

// ScanEdges' chosen edge as bits: a path that picked another j, or the
// same j with a different rounding of t or the value, differs here.
bool SameEdge(const EdgePoint& x, const EdgePoint& y) {
  return x.i == y.i && x.j == y.j &&
         std::memcmp(&x.t, &y.t, sizeof(double)) == 0 &&
         std::memcmp(&x.value, &y.value, sizeof(double)) == 0;
}

// Every row of an n-coordinate objective through ScanEdges on the forced
// scalar table and on the dispatched one, each row starting from the same
// incoming best; returns false (with a failure naming the row) on the first
// row where the two paths disagree.
bool ScanEdgesAgreeOnBothPaths(const std::vector<double>& a,
                               const std::vector<double>& d,
                               const std::vector<double>& l,
                               const EdgePoint& incoming) {
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) {
    EdgePoint scalar = incoming;
    {
      ScopedSimd off(false);
      ScanEdges(a.data(), d.data(), l.data(), i, n, &scalar);
    }
    EdgePoint simd = incoming;
    {
      ScopedSimd on(true);
      ScanEdges(a.data(), d.data(), l.data(), i, n, &simd);
    }
    if (!SameEdge(scalar, simd)) {
      ADD_FAILURE() << "n=" << n << " i=" << i << " scalar (j=" << scalar.j
                    << " t=" << scalar.t << " value=" << scalar.value
                    << ") simd (j=" << simd.j << " t=" << simd.t
                    << " value=" << simd.value << ")";
      return false;
    }
  }
  return true;
}

// Row lengths 0–37 cover the lane tails on both sides of the inline
// threshold, over Theorem-shaped coordinates (a a probability, d and l
// signed).
TEST(KernelsTest, ScanEdgesPicksTheSameEdgeOnBothPaths) {
  Rng rng(2024);
  for (size_t n = 1; n <= 38; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> a(n), d(n), l(n);
      for (size_t k = 0; k < n; ++k) {
        a[k] = rng.Uniform(0.0, 1.0);
        d[k] = rng.Uniform(-1.0, 1.0);
        l[k] = rng.Uniform(-1.0, 1.0);
      }
      ASSERT_TRUE(ScanEdgesAgreeOnBothPaths(a, d, l, EdgePoint{}));
    }
  }
}

// Copies of one coordinate give edges with the same t and value, so the
// maximum is tied across j — inside one group of four, across groups and
// in the tail. Both paths must keep the smallest such j.
TEST(KernelsTest, ScanEdgesBreaksTiesTowardTheSmallestJ) {
  Rng rng(77);
  for (size_t n = 2; n <= 38; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const size_t distinct = 1 + rng.NextBelow(4);
      std::vector<double> pa(distinct), pd(distinct), pl(distinct);
      for (size_t k = 0; k < distinct; ++k) {
        pa[k] = rng.Uniform(0.0, 1.0);
        pd[k] = rng.Uniform(-1.0, 1.0);
        pl[k] = rng.Uniform(-1.0, 1.0);
      }
      std::vector<double> a(n), d(n), l(n);
      for (size_t k = 0; k < n; ++k) {
        const size_t p = rng.NextBelow(distinct);
        a[k] = pa[p];
        d[k] = pd[p];
        l[k] = pl[p];
      }
      ASSERT_TRUE(ScanEdgesAgreeOnBothPaths(a, d, l, EdgePoint{}));
    }
  }
  // A fixed case: row 0 against 36 copies of one coordinate, so every edge
  // is the same concave edge, peaking at t = 0.5 with value 0.25.
  const size_t n = 37;
  std::vector<double> a(n, 0.0), d(n, 1.0), l(n, 0.0);
  a[0] = 1.0;
  d[0] = 0.0;
  for (const bool simd : {false, true}) {
    ScopedSimd path(simd);
    EdgePoint best;
    ScanEdges(a.data(), d.data(), l.data(), 0, n, &best);
    EXPECT_EQ(best.j, 1u) << "simd=" << simd;
    EXPECT_EQ(best.t, 0.5);
    EXPECT_EQ(best.value, 0.25);
  }
}

// An incoming best equal to a lane's maximum is kept (strict `>`); one a
// hair below it is replaced.
TEST(KernelsTest, ScanEdgesKeepsAnIncomingBestEqualToTheMaximum) {
  Rng rng(5150);
  int dispatched_rows = 0;
  for (size_t n = 17; n <= 37; ++n) {
    std::vector<double> a(n), d(n), l(n);
    for (size_t k = 0; k < n; ++k) {
      a[k] = rng.Uniform(0.0, 1.0);
      d[k] = rng.Uniform(-1.0, 1.0);
      l[k] = rng.Uniform(-1.0, 1.0);
    }
    for (size_t i = 0; i + 1 < n; ++i) {
      EdgePoint peak;
      {
        ScopedSimd off(false);
        ScanEdges(a.data(), d.data(), l.data(), i, n, &peak);
      }
      if (peak.value == -std::numeric_limits<double>::infinity()) {
        continue;  // no interior peak on this row
      }
      dispatched_rows += n - i - 1 >= detail::kInlineThreshold;
      const EdgePoint equal{n, n, 0.125, peak.value};
      const EdgePoint below{n, n, 0.125, std::nextafter(peak.value, -1.0)};
      for (const bool simd : {false, true}) {
        ScopedSimd path(simd);
        EdgePoint kept = equal;
        ScanEdges(a.data(), d.data(), l.data(), i, n, &kept);
        EXPECT_TRUE(SameEdge(kept, equal)) << "n=" << n << " i=" << i;
        EdgePoint raised = below;
        ScanEdges(a.data(), d.data(), l.data(), i, n, &raised);
        EXPECT_TRUE(SameEdge(raised, peak)) << "n=" << n << " i=" << i;
      }
      ASSERT_TRUE(ScanEdgesAgreeOnBothPaths(a, d, l, equal));
    }
  }
  EXPECT_GT(dispatched_rows, 0);
}

// Signed zeros, NaN and infinities in every coordinate: a NaN must fail the
// peak test on both paths, and ±0 and ±∞ must round and compare alike.
TEST(KernelsTest, ScanEdgesTreatsSpecialValuesAlikeOnBothPaths) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, nan, inf, -inf, 0.5, -0.5, 1e-300};
  Rng rng(31337);
  for (size_t n = 1; n <= 37; ++n) {
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<double> a(n), d(n), l(n);
      for (std::vector<double>* v : {&a, &d, &l}) {
        for (double& x : *v) {
          x = rng.NextDouble() < 0.3 ? specials[rng.NextBelow(8)]
                                     : rng.Uniform(-1.0, 1.0);
        }
      }
      ASSERT_TRUE(ScanEdgesAgreeOnBothPaths(a, d, l, EdgePoint{}));
      ASSERT_TRUE(
          ScanEdgesAgreeOnBothPaths(a, d, l, EdgePoint{0, 0, 1.0, -0.0}));
    }
  }
}

TEST(KernelsTest, SetSimdEnabledForTestReturnsPreviousState) {
  const bool initial = SimdActive();
  const bool prev = SetSimdEnabledForTest(false);
  EXPECT_EQ(prev, initial);
  EXPECT_FALSE(SimdActive());
  SetSimdEnabledForTest(prev);
  EXPECT_EQ(SimdActive(), initial);
}

}  // namespace
}  // namespace priste::linalg::kernels
