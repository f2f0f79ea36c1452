#include "priste/linalg/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "priste/common/metrics.h"
#include "priste/common/random.h"
#include "testing/simd_levels.h"

namespace priste::linalg::kernels {
namespace {

using priste::testing::ScopedSimdLevel;

std::vector<double> RandomSpan(size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-1.0, 1.0);
  return v;
}

// Equal bits, so a path that differs only in the sign of a zero shows.
bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

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

// The central contract: each SIMD table's result is BIT-identical to the
// scalar table's — sizes straddle the vector width so full blocks, tails,
// and sub-width spans are all covered. GetParam() is the SIMD table under
// test; a table the host cannot run is skipped.
class KernelsPathTest : public priste::testing::SimdLevelTest {};

INSTANTIATE_TEST_SUITE_P(SimdTables, KernelsPathTest,
                         priste::testing::kSimdLevels,
                         priste::testing::SimdLevelParamName);

TEST_P(KernelsPathTest, ElementwiseAndReductionKernelsMatchScalar) {
  Rng rng(123);
  for (const size_t n : {0ul, 1ul, 3ul, 4ul, 7ul, 8ul, 15ul, 16ul, 33ul, 100ul}) {
    const std::vector<double> a = RandomSpan(n, rng);
    const std::vector<double> b = RandomSpan(n, rng);
    std::vector<size_t> cols(n);
    for (size_t i = 0; i < n; ++i) cols[i] = (i * 7) % (n > 0 ? n : 1);

    const auto run = [&](SimdLevel level) {
      ScopedSimdLevel path(level);
      EXPECT_EQ(ActiveSimdLevel(), level);
      std::vector<double> reductions = {
          Sum(a.data(), n), Dot(a.data(), b.data(), n),
          GatherDot(a.data(), cols.data(), n, b.data())};
      std::vector<double> axpy = a, scale = a, hip = a, hi(n), sc(n, 0.0);
      Axpy(1.7, b.data(), axpy.data(), n);
      Scale(scale.data(), 0.3, n);
      HadamardInPlace(b.data(), hip.data(), n);
      HadamardInto(a.data(), b.data(), hi.data(), n);
      ScatterAxpy(1.3, a.data(), cols.data(), n, sc.data());
      return std::vector<std::vector<double>>{reductions, axpy, scale,
                                              hip, hi, sc};
    };
    const auto scalar = run(SimdLevel::kScalar);
    const auto simd = run(GetParam());
    for (size_t k = 0; k < scalar.size(); ++k) {
      EXPECT_TRUE(SameBits(simd[k], scalar[k])) << "n=" << n << " output " << k;
    }
  }
}

TEST_P(KernelsPathTest, ReplicateKernelsMatchScalar) {
  Rng rng(321);
  for (const size_t m : {1ul, 5ul, 8ul, 13ul, 32ul}) {
    for (const size_t blocks : {1ul, 2ul, 4ul}) {
      const std::vector<double> row = RandomSpan(blocks * m, rng);
      const std::vector<double> cand = RandomSpan(m, rng);
      const std::vector<double> seed = RandomSpan(blocks * m, rng);
      const auto run = [&](SimdLevel level) {
        ScopedSimdLevel path(level);
        std::vector<double> out(3);
        out[0] = ReplicateDot(row.data(), blocks, m, cand.data());
        ReplicateDotPair(row.data(), blocks, m, cand.data(), seed.data(),
                         &out[1], &out[2]);
        return out;
      };
      EXPECT_TRUE(SameBits(run(GetParam()), run(SimdLevel::kScalar)))
          << "m=" << m << " blocks=" << blocks;
    }
  }
}

// DotRows through the public entry and through the table itself, which the
// entry skips below kInlineThreshold; outs[j] is one nrows-long output.
std::vector<std::vector<double>> RunDotRows(SimdLevel level,
                                            const std::vector<double>& rows,
                                            size_t stride, size_t nrows,
                                            const std::vector<const double*>& vs,
                                            size_t n, bool table) {
  ScopedSimdLevel path(level);
  std::vector<std::vector<double>> outs(vs.size(), std::vector<double>(nrows));
  std::vector<double*> op;
  for (auto& o : outs) op.push_back(o.data());
  if (table) {
    detail::DispatchDotRows(rows.data(), stride, nrows, vs.data(), vs.size(),
                            n, op.data());
  } else {
    DotRows(rows.data(), stride, nrows, vs.data(), vs.size(), n, op.data());
  }
  return outs;
}

// DotRows blocks rows × vectors, and the AVX-512 table pairs two vectors per
// register, but every output must keep the exact operation sequence of the
// per-row Dot: 1–4 vectors, row counts straddling every block height,
// lengths 0–37 across the lane tail and the inline threshold, rows padded
// to a stride wider than n (so a kernel reading past n or ignoring the
// stride shows), and entries that are ±0 or ±∞ now and then. NaN inputs are
// left out: which of two NaNs an add returns depends on operand order, and
// neither path promises that.
TEST_P(KernelsPathTest, DotRowsMatchesScalarAndPerRowDot) {
  Rng rng(99);
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, inf, -inf};
  const auto span = [&](size_t len) {
    std::vector<double> v = RandomSpan(len, rng);
    for (double& x : v) {
      if (rng.NextDouble() < 0.02) x = specials[rng.NextBelow(4)];
    }
    return v;
  };
  for (size_t count = 1; count <= kDotRowsMaxVectors; ++count) {
    for (const size_t nrows :
         {1ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul, 13ul, 17ul}) {
      for (size_t n = 0; n <= 37; ++n) {
        const size_t stride = n + 3;
        const std::vector<double> rows = span(nrows * stride);
        std::vector<std::vector<double>> vs;
        for (size_t j = 0; j < count; ++j) vs.push_back(span(n));
        std::vector<const double*> vp;
        for (const auto& v : vs) vp.push_back(v.data());
        std::vector<std::vector<double>> per_row(
            count, std::vector<double>(nrows));
        {
          ScopedSimdLevel path(SimdLevel::kScalar);
          for (size_t j = 0; j < count; ++j) {
            for (size_t r = 0; r < nrows; ++r) {
              per_row[j][r] = Dot(rows.data() + r * stride, vp[j], n);
            }
          }
        }
        for (const bool table : {false, true}) {
          const auto scalar = RunDotRows(SimdLevel::kScalar, rows, stride,
                                         nrows, vp, n, table);
          const auto simd =
              RunDotRows(GetParam(), rows, stride, nrows, vp, n, table);
          for (size_t j = 0; j < count; ++j) {
            EXPECT_TRUE(SameBits(scalar[j], per_row[j]))
                << "scalar count=" << count << " nrows=" << nrows
                << " n=" << n << " table=" << table << " output " << j;
            EXPECT_TRUE(SameBits(simd[j], scalar[j]))
                << "count=" << count << " nrows=" << nrows << " n=" << n
                << " table=" << table << " output " << j;
          }
        }
      }
    }
  }
}

// The window passes hand DotRows the same vector twice (c̄'s bit-equal
// halves), by pointer or as equal copies; the two outputs must come out
// equal and equal to the scalar table's.
TEST_P(KernelsPathTest, DotRowsWithDuplicateVectorsMatchesScalar) {
  Rng rng(404);
  const size_t n = 37, nrows = 19, stride = 40;
  const std::vector<double> rows = RandomSpan(nrows * stride, rng);
  const std::vector<double> v = RandomSpan(n, rng);
  const std::vector<double> copy = v;
  const std::vector<double> w = RandomSpan(n, rng);
  const std::vector<std::vector<const double*>> cases = {
      {v.data(), v.data()},
      {v.data(), copy.data()},
      {v.data(), w.data(), copy.data()},
      {v.data(), v.data(), w.data(), w.data()},
      {w.data(), v.data(), copy.data(), v.data()}};
  for (const auto& vs : cases) {
    for (const bool table : {false, true}) {
      const auto scalar =
          RunDotRows(SimdLevel::kScalar, rows, stride, nrows, vs, n, table);
      const auto simd = RunDotRows(GetParam(), rows, stride, nrows, vs, n, table);
      for (size_t j = 0; j < vs.size(); ++j) {
        EXPECT_TRUE(SameBits(simd[j], scalar[j]))
            << "count=" << vs.size() << " output " << j;
        for (size_t k = 0; k < j; ++k) {
          if (std::memcmp(vs[k], vs[j], n * sizeof(double)) == 0) {
            EXPECT_TRUE(SameBits(simd[j], simd[k]))
                << "outputs " << k << " and " << j;
          }
        }
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

// Every row of an n-coordinate objective through ScanEdges on the scalar
// table and on `level`'s, each row starting from the same incoming best,
// both through the public entry and through the table itself (which the
// entry skips for rows with fewer than kInlineThreshold entries past i);
// returns false (with a failure naming the row) on the first row where the
// two tables disagree.
bool ScanEdgesMatchesScalar(SimdLevel level, const std::vector<double>& a,
                            const std::vector<double>& d,
                            const std::vector<double>& l,
                            const EdgePoint& incoming) {
  const size_t n = a.size();
  const auto scan = [&](SimdLevel path_level, size_t i, bool table) {
    ScopedSimdLevel path(path_level);
    EdgePoint best = incoming;
    if (table) {
      detail::DispatchScanEdges(a.data(), d.data(), l.data(), i, n, &best);
    } else {
      ScanEdges(a.data(), d.data(), l.data(), i, n, &best);
    }
    return best;
  };
  for (size_t i = 0; i < n; ++i) {
    for (const bool table : {false, true}) {
      const EdgePoint scalar = scan(SimdLevel::kScalar, i, table);
      const EdgePoint simd = scan(level, i, table);
      if (!SameEdge(scalar, simd)) {
        ADD_FAILURE() << SimdLevelName(level) << " n=" << n << " i=" << i
                      << " table=" << table << " scalar (j=" << scalar.j
                      << " t=" << scalar.t << " value=" << scalar.value
                      << ") simd (j=" << simd.j << " t=" << simd.t
                      << " value=" << simd.value << ")";
        return false;
      }
    }
  }
  return true;
}

// Row lengths 1–38 put 0–37 entries past i, so the AVX-512 table's
// eight-wide steps, the four-wide loop and the scalar tail each run alone
// and together, over Theorem-shaped coordinates (a a probability, d and l
// signed).
TEST_P(KernelsPathTest, ScanEdgesPicksTheSameEdgeAsScalar) {
  Rng rng(2024);
  for (size_t n = 1; n <= 38; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> a(n), d(n), l(n);
      for (size_t k = 0; k < n; ++k) {
        a[k] = rng.Uniform(0.0, 1.0);
        d[k] = rng.Uniform(-1.0, 1.0);
        l[k] = rng.Uniform(-1.0, 1.0);
      }
      ASSERT_TRUE(ScanEdgesMatchesScalar(GetParam(), a, d, l, EdgePoint{}));
    }
  }
}

// Copies of one coordinate give edges with the same t and value, so the
// maximum is tied across j — inside one group of four or eight, across
// groups and in the tail. Every table must keep the smallest such j.
TEST_P(KernelsPathTest, ScanEdgesBreaksTiesTowardTheSmallestJ) {
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
      ASSERT_TRUE(ScanEdgesMatchesScalar(GetParam(), a, d, l, EdgePoint{}));
    }
  }
  // A fixed case: row 0 against 36 copies of one coordinate, so every edge
  // is the same concave edge, peaking at t = 0.5 with value 0.25.
  const size_t n = 37;
  std::vector<double> a(n, 0.0), d(n, 1.0), l(n, 0.0);
  a[0] = 1.0;
  d[0] = 0.0;
  for (const SimdLevel level : {SimdLevel::kScalar, GetParam()}) {
    ScopedSimdLevel path(level);
    EdgePoint best;
    ScanEdges(a.data(), d.data(), l.data(), 0, n, &best);
    EXPECT_EQ(best.j, 1u) << SimdLevelName(level);
    EXPECT_EQ(best.t, 0.5);
    EXPECT_EQ(best.value, 0.25);
  }
}

// An incoming best equal to a lane's maximum is kept (strict `>`); one a
// hair below it is replaced.
TEST_P(KernelsPathTest, ScanEdgesKeepsAnIncomingBestEqualToTheMaximum) {
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
        ScopedSimdLevel path(SimdLevel::kScalar);
        ScanEdges(a.data(), d.data(), l.data(), i, n, &peak);
      }
      if (peak.value == -std::numeric_limits<double>::infinity()) {
        continue;  // no interior peak on this row
      }
      dispatched_rows += n - i - 1 >= detail::kInlineThreshold;
      const EdgePoint equal{n, n, 0.125, peak.value};
      const EdgePoint below{n, n, 0.125, std::nextafter(peak.value, -1.0)};
      for (const SimdLevel level : {SimdLevel::kScalar, GetParam()}) {
        ScopedSimdLevel path(level);
        EdgePoint kept = equal;
        ScanEdges(a.data(), d.data(), l.data(), i, n, &kept);
        EXPECT_TRUE(SameEdge(kept, equal)) << "n=" << n << " i=" << i;
        EdgePoint raised = below;
        ScanEdges(a.data(), d.data(), l.data(), i, n, &raised);
        EXPECT_TRUE(SameEdge(raised, peak)) << "n=" << n << " i=" << i;
      }
      ASSERT_TRUE(ScanEdgesMatchesScalar(GetParam(), a, d, l, equal));
    }
  }
  EXPECT_GT(dispatched_rows, 0);
}

// Signed zeros, NaN and infinities in every coordinate: a NaN must fail the
// peak test on every table, and ±0 and ±∞ must round and compare alike.
TEST_P(KernelsPathTest, ScanEdgesTreatsSpecialValuesLikeScalar) {
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
      ASSERT_TRUE(ScanEdgesMatchesScalar(GetParam(), a, d, l, EdgePoint{}));
      ASSERT_TRUE(ScanEdgesMatchesScalar(GetParam(), a, d, l,
                                         EdgePoint{0, 0, 1.0, -0.0}));
    }
  }
}

TEST(KernelsTest, SetSimdLevelForTestSelectsAnyAvailableTable) {
  const SimdLevel initial = ActiveSimdLevel();
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const SimdLevel before = ActiveSimdLevel();
    EXPECT_EQ(SetSimdLevelForTest(level), before);
    // A table the host cannot run is capped at the widest one it can.
    const SimdLevel expected = std::min(level, WidestSimdLevel());
    EXPECT_EQ(ActiveSimdLevel(), expected) << SimdLevelName(level);
    EXPECT_EQ(MetricsRegistry::Global().GetGauge("simd.dispatch").value(),
              static_cast<long>(expected));
  }
  SetSimdLevelForTest(initial);
  EXPECT_EQ(ActiveSimdLevel(), initial);
}

TEST(KernelsTest, SimdLevelNamesTheTable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
}

}  // namespace
}  // namespace priste::linalg::kernels
