#ifndef PRISTE_COMMON_CHECK_H_
#define PRISTE_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

/// Runtime invariant checks. PRISTE_CHECK is always on (library invariants
/// whose violation would produce silently-wrong privacy accounting are never
/// compiled out); PRISTE_DCHECK compiles away in NDEBUG builds and guards
/// hot-loop assertions.
#define PRISTE_CHECK(cond)                                                 \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "PRISTE_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

#define PRISTE_CHECK_MSG(cond, msg)                                           \
  do {                                                                        \
    if (!(cond)) {                                                            \
      std::fprintf(stderr, "PRISTE_CHECK failed at %s:%d: %s (%s)\n",         \
                   __FILE__, __LINE__, #cond, msg);                           \
      std::abort();                                                           \
    }                                                                         \
  } while (false)

#ifdef NDEBUG
#define PRISTE_DCHECK(cond) \
  do {                      \
  } while (false)
#else
#define PRISTE_DCHECK(cond) PRISTE_CHECK(cond)
#endif

#endif  // PRISTE_COMMON_CHECK_H_
