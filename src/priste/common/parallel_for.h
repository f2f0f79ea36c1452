#ifndef PRISTE_COMMON_PARALLEL_FOR_H_
#define PRISTE_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "priste/common/thread_annotations.h"

namespace priste {

/// Runs fn(0..n-1) on min(threads, n) threads: the caller plus
/// min(threads, n) - 1 std::threads started for this call, which claim
/// indices from one shared atomic counter and are joined before the call
/// returns. `threads` <= 1 runs every iteration inline on the caller.
///
/// Iterations must not throw and must write only disjoint per-index state,
/// so results do not depend on the thread count (see parallel_for_test.cc).
/// A nested call starts threads of its own, so nesting cannot deadlock; a
/// thread the system refuses to start leaves its share to the others.
PRISTE_BLOCKING void ParallelFor(int threads, size_t n,
                                 const std::function<void(size_t)>& fn);

/// ParallelFor at DefaultThreadCount() threads.
PRISTE_BLOCKING void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// PRISTE_THREADS when set to an integer >= 1, otherwise the hardware
/// concurrency (minimum 1). The count includes the calling thread, so 1
/// means serial. Re-reads the environment on every call.
int DefaultThreadCount();

}  // namespace priste

#endif  // PRISTE_COMMON_PARALLEL_FOR_H_
