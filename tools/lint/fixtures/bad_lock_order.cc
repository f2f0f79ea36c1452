// Seeded-bad fixture for tools/lint/priste_lint.py --self-test. NOT compiled.
//
// Expected findings:
//   lock-order x3:
//     1. same-level nesting — two level-10 shard mutexes held at once
//     2. lock-level cycle 20 <-> 30 through call-graph edges
//     3. unclassified Mutex member (no PRISTE_LOCK_LEVEL)
//   bare-waiver x1:
//     allow(lock-order) with no justification text on the waiver line
#define PRISTE_LOCK_LEVEL(n)

class Mutex {};
class MutexLock {
 public:
  explicit MutexLock(Mutex* mu);
};

namespace fixture {

struct ShardA {
  Mutex mu PRISTE_LOCK_LEVEL(10);
};
struct ShardB {
  Mutex mu PRISTE_LOCK_LEVEL(10);
};

// lock-order #1: both shards live at level 10; nesting them deadlocks the
// moment two threads pick opposite orders.
void DoubleShard(ShardA* a, ShardB* b) {
  MutexLock la(&a->mu);
  MutexLock lb(&b->mu);
}

struct Pool {
  Mutex pool_mu PRISTE_LOCK_LEVEL(20);
};
struct Loop {
  Mutex loop_mu PRISTE_LOCK_LEVEL(30);
};

void GrabLoop(Loop* l) { MutexLock lock(&l->loop_mu); }
void GrabPool(Pool* p) { MutexLock lock(&p->pool_mu); }

// Ascending 20 -> 30 on its own would be legal...
void Forward(Pool* p, Loop* l) {
  MutexLock lock(&p->pool_mu);
  GrabLoop(l);
}

// ...but this descending 30 -> 20 edge completes the cycle: lock-order #2.
void Backward(Loop* l, Pool* p) {
  MutexLock lock(&l->loop_mu);
  GrabPool(p);
}

// lock-order #3: a mutex outside the hierarchy is invisible to the analysis.
struct Orphan {
  Mutex unlabeled_mu;
};

// bare-waiver: the waiver below names no root cause, which is itself a
// finding (the acquisition it waives is a lone lock: nothing else fires).
void Waived(ShardA* a) {
  // priste-lint: allow(lock-order)
  MutexLock lock(&a->mu);
}

}  // namespace fixture
