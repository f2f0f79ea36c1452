#include "priste/common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

#include "priste/common/strings.h"

namespace priste {

void ParallelFor(int threads, size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const size_t helpers = std::min(static_cast<size_t>(std::max(threads, 1)), n) - 1;
  std::vector<std::thread> workers;
  workers.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) {
    try {
      workers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;  // no thread to be had: the running ones finish the loop
    }
  }
  drain();
  // join() also orders every helper's writes before the return.
  for (std::thread& worker : workers) worker.join();
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelFor(DefaultThreadCount(), n, fn);
}

int DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw >= 1 ? static_cast<int>(hw) : 1;
  // Strict full-string parse: "4x" or "abc" warn and fall back.
  return ReadIntEnv("PRISTE_THREADS", fallback, /*min_value=*/1);
}

}  // namespace priste
