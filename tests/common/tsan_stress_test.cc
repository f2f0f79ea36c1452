// Concurrency stress suites written FOR ThreadSanitizer: each test drives a
// shared structure from several threads at once with enough churn that a
// missing acquire/release or an unguarded field produces an actual
// interleaving TSan can flag. They also run (fast) in the plain test legs,
// where they assert the invariants that survive any interleaving — exact
// counts, live handles, snapshot consistency — so a logic race that happens
// to be TSan-clean still fails somewhere.
//
// Keep these suites on the TSan CI leg's filter list
// (CMakePresets.json, test preset "tsan") when renaming anything here.

#include <array>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "priste/common/metrics.h"
#include "priste/common/parallel_for.h"

namespace priste {
namespace {

// --- ParallelFor: nested loops at two threads each -------------------------

TEST(TsanStressTest, NestedParallelForAtTwoThreads) {
  // The outer loop's iterations issue their own two-thread ParallelFor, so
  // threads are started, claim indices and are joined from caller AND
  // helper threads concurrently. The counts are plain ints: each is written
  // by one thread and read here only after the joins, so a missing
  // happens-before edge (or an index run twice) is a race TSan reports.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::array<std::array<int, kInner>, kOuter> counts{};
  ParallelFor(2, kOuter, [&](size_t i) {
    ParallelFor(2, kInner, [&, i](size_t j) { ++counts[i][j]; });
  });
  for (size_t i = 0; i < kOuter; ++i) {
    for (size_t j = 0; j < kInner; ++j) {
      EXPECT_EQ(counts[i][j], 1) << i << "," << j;
    }
  }
}

// --- MetricsRegistry: histogram writers racing TakeSnapshot ----------------

TEST(TsanStressTest, ConcurrentHistogramWritersDuringSnapshot) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.tsan_hist");
  Counter& ctr = registry.GetCounter("test.tsan_ctr");

  constexpr int kWriters = 3;
  constexpr long kPerWriter = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (long i = 0; i < kPerWriter; ++i) {
        hist.Record(1e-6 * static_cast<double>((i % 20) + w));
        ctr.Increment();
        // Interleave directory lookups with the wait-free writes: the
        // registration mutex must not order against Record/Increment.
        if (i % 512 == 0) registry.GetCounter("test.tsan_ctr").Increment();
      }
    });
  }

  // Snapshot continually while the writers run. The histogram's count is
  // DERIVED from its buckets (metrics.h), so even a mid-write snapshot must
  // be internally consistent: monotone non-decreasing, never past the total
  // written, quantile estimates ordered.
  const long kTotal = kWriters * kPerWriter;
  long last_count = 0;
  while (last_count < kTotal) {
    const MetricsRegistry::Snapshot snap = registry.TakeSnapshot();
    for (const auto& h : snap.histograms) {
      ASSERT_EQ(h.name, "test.tsan_hist");
      EXPECT_GE(h.count, last_count);
      EXPECT_LE(h.count, kTotal);
      if (h.count > 0) {
        EXPECT_LE(h.p50_seconds, h.p99_seconds);
      }
      last_count = h.count;
    }
  }
  for (auto& th : writers) th.join();

  const MetricsRegistry::Snapshot final_snap = registry.TakeSnapshot();
  ASSERT_EQ(final_snap.histograms.size(), 1u);
  EXPECT_EQ(final_snap.histograms[0].count, kTotal);
  EXPECT_GE(final_snap.counters[0].value, kTotal);
}

}  // namespace
}  // namespace priste
