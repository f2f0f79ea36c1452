#ifndef PRISTE_COMMON_THREAD_ANNOTATIONS_H_
#define PRISTE_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis annotations (the Abseil/LevelDB macro set,
/// PRISTE-prefixed). Under Clang with -Wthread-safety these turn the lock
/// discipline documented in comments into compile errors: a field declared
/// PRISTE_GUARDED_BY(mu) cannot be read or written without holding `mu`, a
/// function declared PRISTE_REQUIRES(mu) cannot be called without it, and so
/// on. Under every other compiler they expand to nothing, so GCC builds are
/// unaffected.
///
/// The analysis only understands capability-annotated lock types —
/// std::mutex from libstdc++ carries no annotations — so guarded state must
/// be protected by priste::Mutex / priste::MutexLock (common/mutex.h), not
/// raw std::mutex. The CI `lint` job compiles the tree with
/// clang -Wthread-safety -Werror; keeping that gate green is part of tier 1
/// for any change that touches a mutex.
///
/// PRISTE_HOT_PATH is not a thread-safety annotation: it marks a function
/// body as allocation-free by contract (see tools/lint/priste_lint.py, rules
/// `hot-path-alloc` and `hot-path-alloc-transitive`). The analyzer rejects
/// direct `new`/`malloc` and std-container growth inside marked bodies and
/// in every function they reach; under Clang the marker also leaves an
/// `annotate("priste_hot_path")` attribute in the AST.

#if defined(__clang__) && !defined(SWIG)
#define PRISTE_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define PRISTE_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

/// Declares a type to be a lockable capability ("mutex").
#define PRISTE_CAPABILITY(x) PRISTE_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define PRISTE_SCOPED_CAPABILITY \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// A data member that may only be accessed while holding the given mutex.
#define PRISTE_GUARDED_BY(x) PRISTE_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// A pointer member whose *pointee* is guarded by the given mutex.
#define PRISTE_PT_GUARDED_BY(x) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock detection).
#define PRISTE_ACQUIRED_BEFORE(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define PRISTE_ACQUIRED_AFTER(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// The function may only be called while holding the listed capabilities
/// exclusively (resp. shared); it does not release them.
#define PRISTE_REQUIRES(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define PRISTE_REQUIRES_SHARED(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// The function acquires (resp. releases) the listed capabilities.
#define PRISTE_ACQUIRE(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define PRISTE_ACQUIRE_SHARED(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define PRISTE_RELEASE(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define PRISTE_RELEASE_SHARED(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define PRISTE_TRY_ACQUIRE(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// The function may not be called while holding the listed capabilities
/// (self-deadlock prevention for non-reentrant locks).
#define PRISTE_EXCLUDES(...) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime, for the analysis' benefit) that the calling thread
/// already holds the capability.
#define PRISTE_ASSERT_CAPABILITY(x) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// The function returns a reference to the given capability.
#define PRISTE_RETURN_CAPABILITY(x) \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function intentionally violates the declared discipline
/// (e.g. a test poking at internals). Every use needs a comment saying why.
#define PRISTE_NO_THREAD_SAFETY_ANALYSIS \
  PRISTE_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

/// Marks a function whose body must stay free of direct heap allocation: no
/// `new`/`malloc`-family calls and no std-container growth
/// (push_back/resize/reserve/...). Enforced at two depths by
/// tools/lint/priste_lint.py: the body rule `hot-path-alloc` and the
/// whole-program rule `hot-path-alloc-transitive`, which follows every call
/// path out of the marked body and flags allocations in unmarked helpers
/// too. Writes into preallocated buffers (RowBlock rows, ping-pong work
/// vectors) are the sanctioned alternative; amortized scratch growth carries
/// a `// priste-lint: allow(...)` waiver at the allocation or call edge.
#if defined(__clang__)
#define PRISTE_HOT_PATH __attribute__((annotate("priste_hot_path")))
#else
#define PRISTE_HOT_PATH
#endif

/// Marks a serving-boundary entry point that must return a typed error
/// (priste::Result) instead of terminating the process on bad input: no path
/// from the annotated body may reach PRISTE_CHECK, abort/exit,
/// std::terminate, a throw, or a value() call (it throws when empty).
/// PRISTE_DCHECK is permitted — it compiles away in NDEBUG serving builds. Enforced transitively by
/// tools/lint/priste_lint.py (rule `no-abort-reachable`).
#if defined(__clang__)
#define PRISTE_NO_ABORT __attribute__((annotate("priste_no_abort")))
#else
#define PRISTE_NO_ABORT
#endif

/// Assigns a priste::Mutex member to a level in the whole-program lock
/// hierarchy. Levels are acquired in ASCENDING order only: while a level-N
/// mutex is held, acquiring another level-N mutex (self-deadlock across
/// instances) or completing a cycle through lower levels is a lint error.
/// Enforced transitively by tools/lint/priste_lint.py (rule
/// `lock-order`), which also requires EVERY Mutex member to carry a level —
/// an unclassified mutex is itself a finding. Current hierarchy:
///
///   10  lppm::EmissionCache::mu_     (LRU state; leaf: no locks taken under it)
///   40  MetricsRegistry::Impl::mu    (registry map; leaf-like, level-top)
///
/// Under Clang the marker leaves an `annotate("priste_lock_level_<n>")`
/// attribute in the AST; under other compilers it expands to nothing. The
/// linter reads the macro lexically, so the annotation works identically in
/// GCC-only checkouts.
#if defined(__clang__)
#define PRISTE_LOCK_LEVEL(n) __attribute__((annotate("priste_lock_level_" #n)))
#else
#define PRISTE_LOCK_LEVEL(n)
#endif

/// Marks a function that may BLOCK the calling thread for an unbounded time:
/// condition-variable waits, ParallelFor (it joins threads), file IO, sleeps.
/// No function transitively reachable while a priste::MutexLock is held may
/// be PRISTE_BLOCKING — blocking under a lock stalls every thread contending
/// for it. Enforced transitively by tools/lint/priste_lint.py (rule
/// `blocking-under-lock`); the annotation seeds the blocking set alongside
/// the linter's built-in token list (sleep/fopen/ifstream/join/...).
#if defined(__clang__)
#define PRISTE_BLOCKING __attribute__((annotate("priste_blocking")))
#else
#define PRISTE_BLOCKING
#endif

#endif  // PRISTE_COMMON_THREAD_ANNOTATIONS_H_
