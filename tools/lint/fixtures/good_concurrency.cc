// Clean fixture for tools/lint/priste_lint.py --self-test. NOT compiled.
// Ascending lock nesting and a justified condvar-wait waiver: expected
// finding count is ZERO.
#define PRISTE_LOCK_LEVEL(n)
#define PRISTE_BLOCKING

class Mutex {};
class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};
class ConditionVariable {
 public:
  PRISTE_BLOCKING void Wait(Mutex* mu);
  void Signal();
};

namespace fixture {

struct Cache {
  Mutex mu PRISTE_LOCK_LEVEL(10);
};
struct Pool {
  Mutex pool_mu PRISTE_LOCK_LEVEL(20);
  ConditionVariable cv;
  bool ready = false;
};

void Inner(Pool* p) { MutexLock lock(&p->pool_mu); }

// 10 -> 20 ascends the hierarchy: legal nesting.
void Ascending(Cache* c, Pool* p) {
  MutexLock lock(&c->mu);
  Inner(p);
}

// The sanctioned block-under-lock: a condvar wait releases the mutex while
// sleeping, so the waiver (with its root cause) keeps this clean.
void WaitReady(Pool* p) {
  MutexLock lock(&p->pool_mu);
  // priste-lint: allow(blocking-under-lock) condvar wait releases pool_mu
  // while sleeping; the producer only holds it to flip `ready` and signal.
  while (!p->ready) p->cv.Wait(&p->pool_mu);
}

}  // namespace fixture
