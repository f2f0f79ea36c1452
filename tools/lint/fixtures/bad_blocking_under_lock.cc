// Seeded-bad fixture for tools/lint/priste_lint.py --self-test. NOT compiled.
//
// Expected findings: blocking-under-lock x3:
//   1. direct sleep token under a held MutexLock
//   2. call chain reaching a PRISTE_BLOCKING-declared function (the
//      annotation seeds the blocking set even with no definition in sight)
//   3. call chain reaching file IO
#define PRISTE_LOCK_LEVEL(n)
#define PRISTE_BLOCKING
#include <cstdio>

class Mutex {};
class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

namespace fixture {

struct Guard {
  Mutex mu PRISTE_LOCK_LEVEL(10);
};

// Declaration-only: the PRISTE_BLOCKING marker alone makes calls to this a
// blocking sink (mirrors ParallelFor, annotated in the header).
PRISTE_BLOCKING void WaitForWork();

// blocking-under-lock #1: sleeping with the lock held stalls every waiter.
void SleepUnderLock(Guard* g) {
  MutexLock lock(&g->mu);
  usleep(100);
}

void HelperThatBlocks() { WaitForWork(); }

// blocking-under-lock #2: depth-2 chain into the annotated sink.
void TransitiveBlock(Guard* g) {
  MutexLock lock(&g->mu);
  HelperThatBlocks();
}

void FileIoHelper() {
  std::FILE* f = fopen("stats.csv", "r");
  if (f) fclose(f);
}

// blocking-under-lock #3: file IO reached through a helper.
void IoUnderLock(Guard* g) {
  MutexLock lock(&g->mu);
  FileIoHelper();
}

}  // namespace fixture
