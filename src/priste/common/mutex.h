#ifndef PRISTE_COMMON_MUTEX_H_
#define PRISTE_COMMON_MUTEX_H_

#include <mutex>

#include "priste/common/thread_annotations.h"

namespace priste {

/// Capability-annotated wrapper over std::mutex (the LevelDB `port::Mutex`
/// pattern). libstdc++'s std::mutex carries no thread-safety annotations, so
/// Clang's -Wthread-safety cannot see through it; every mutex that guards
/// library state uses this wrapper instead, which makes PRISTE_GUARDED_BY
/// declarations statically checkable. It adds no storage or locking
/// overhead beyond std::mutex.
class PRISTE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PRISTE_ACQUIRE() { mu_.lock(); }
  void Unlock() PRISTE_RELEASE() { mu_.unlock(); }

  /// Documents (to the analysis, not at runtime) that the caller holds the
  /// mutex — for helpers reached only from locked regions the analysis
  /// cannot trace.
  void AssertHeld() PRISTE_ASSERT_CAPABILITY() {}

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex; the scoped-capability shape -Wthread-safety tracks.
class PRISTE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PRISTE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PRISTE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace priste

#endif  // PRISTE_COMMON_MUTEX_H_
