#include "priste/common/parallel_for.h"

#include <atomic>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace priste {
namespace {

// A deterministic per-index computation with enough work that iterations
// overlap when threads are available.
double Work(size_t i) {
  double acc = static_cast<double>(i) + 1.0;
  for (int k = 0; k < 1000; ++k) {
    acc = acc * 1.0000001 + static_cast<double>(i % 7);
  }
  return acc;
}

// Sets PRISTE_THREADS (nullptr unsets it) and restores the prior value.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* saved = std::getenv("PRISTE_THREADS")) saved_ = saved;
    if (value != nullptr) {
      setenv("PRISTE_THREADS", value, 1);
    } else {
      unsetenv("PRISTE_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (saved_) {
      setenv("PRISTE_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("PRISTE_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

// The distinct threads that ran ParallelFor(n) at the current
// PRISTE_THREADS, or at `threads` when given.
std::set<std::thread::id> ThreadsThatRan(size_t n,
                                         std::optional<int> threads = {}) {
  std::vector<std::thread::id> ran(n);
  const auto record = [&](size_t i) {
    (void)Work(i);
    ran[i] = std::this_thread::get_id();
  };
  if (threads) {
    ParallelFor(*threads, n, record);
  } else {
    ParallelFor(n, record);
  }
  return {ran.begin(), ran.end()};
}

TEST(ParallelForTest, ResultsAreIndependentOfThreadCount) {
  const size_t n = 64;
  std::vector<std::vector<double>> per_count;
  for (const int threads : {0, 1, 2, 4}) {
    std::vector<double> out(n, 0.0);
    ParallelFor(threads, n, [&](size_t i) { out[i] = Work(i); });
    per_count.push_back(std::move(out));
  }
  for (size_t p = 1; p < per_count.size(); ++p) {
    for (size_t i = 0; i < n; ++i) {
      // Bit-identical, not just close: the computation per index is fixed.
      EXPECT_EQ(per_count[0][i], per_count[p][i]) << "count=" << p << " i=" << i;
    }
  }
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  const size_t n = 500;
  std::vector<std::atomic<int>> counts(n);
  for (auto& c : counts) c.store(0);
  ParallelFor(4, n, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelForTest, HandlesDegenerateSizes) {
  int calls = 0;
  ParallelFor(2, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(2, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, OneThreadRunsInlineOnTheCaller) {
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  EXPECT_EQ(ThreadsThatRan(16, 1), caller);
  EXPECT_EQ(ThreadsThatRan(16, 0), caller);
}

TEST(ParallelForTest, ThreadCountBoundsTheThreadsUsed) {
  // At most min(T, n) threads, the caller included.
  EXPECT_LE(ThreadsThatRan(64, 3).size(), 3u);
  EXPECT_LE(ThreadsThatRan(2, 8).size(), 2u);
}

TEST(ParallelForTest, PristeThreadsCountsTheCaller) {
  // PRISTE_THREADS is read at each call and counts the calling thread, so 1
  // is serial on the caller and 2 adds at most one thread.
  {
    const ScopedThreadsEnv env("1");
    const std::set<std::thread::id> caller = {std::this_thread::get_id()};
    EXPECT_EQ(ThreadsThatRan(64), caller);
  }
  {
    const ScopedThreadsEnv env("2");
    EXPECT_LE(ThreadsThatRan(64).size(), 2u);
  }
}

TEST(ParallelForTest, NestedLoopsDoNotDeadlock) {
  // Each call starts threads of its own, so inner sections make progress
  // however busy the outer ones are.
  const size_t outer = 8, inner = 8;
  std::vector<double> out(outer * inner, 0.0);
  ParallelFor(3, outer, [&](size_t i) {
    ParallelFor(3, inner, [&](size_t j) { out[i * inner + j] = Work(i * inner + j); });
  });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], Work(i));
}

TEST(ParallelForTest, DefaultThreadCountHonoursEnv) {
  {
    const ScopedThreadsEnv env("3");
    EXPECT_EQ(DefaultThreadCount(), 3);
  }
  {
    const ScopedThreadsEnv env("0");  // invalid → hardware fallback
    EXPECT_GE(DefaultThreadCount(), 1);
  }
  const ScopedThreadsEnv unset(nullptr);
  const int fallback = DefaultThreadCount();
  EXPECT_GE(fallback, 1);

  // Strict parsing: "4x" used to slide through atoi as 4 threads, "abc" as
  // 0 — both now warn and fall back to hardware concurrency.
  for (const char* bad : {"4x", "abc", "-2"}) {
    const ScopedThreadsEnv env(bad);
    EXPECT_EQ(DefaultThreadCount(), fallback) << bad;
  }
}

}  // namespace
}  // namespace priste
