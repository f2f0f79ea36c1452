#ifndef PRISTE_COMMON_THREAD_AFFINITY_H_
#define PRISTE_COMMON_THREAD_AFFINITY_H_

#include <thread>

#include "priste/common/check.h"

namespace priste {

/// Debug-build owner-thread assertion for types that are single-threaded by
/// contract (SliceBasisMemo, QpSolver::WarmState — one owning context
/// per thread, never shared). The owner is latched on the FIRST Check() call
/// — not at construction, because these objects are routinely constructed on
/// one thread and then used entirely on a worker (ParallelFor runs whole
/// experiment repeats on pool threads). Every later Check() dies in debug
/// builds if it runs on a different thread.
///
/// In NDEBUG builds the class is an empty shell and Check() compiles to
/// nothing, so release binaries pay no size or time cost. This is
/// documentation the upcoming work-stealing executor can rely on: when a
/// task chain migrates one of these objects between workers, it must
/// Release() the affinity at the handoff point (the single-threaded phases
/// on each side stay checked).
class ThreadAffinity {
 public:
#ifdef NDEBUG
  void Check() const {}
  void Release() const {}
#else
  void Check() const {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id()) {
      owner_ = self;
      return;
    }
    PRISTE_CHECK_MSG(owner_ == self,
                     "single-threaded object touched from a second thread");
  }

  /// Unlatches the owner (explicit cross-thread handoff). The next Check()
  /// latches the new thread.
  void Release() const { owner_ = std::thread::id(); }

 private:
  /// Latched under the single-threaded contract itself: if two threads race
  /// the first Check(), that race IS the bug being hunted, and TSan's leg of
  /// the CI matrix reports it even when the latch happens to look clean.
  mutable std::thread::id owner_{};
#endif
};

}  // namespace priste

#endif  // PRISTE_COMMON_THREAD_AFFINITY_H_
