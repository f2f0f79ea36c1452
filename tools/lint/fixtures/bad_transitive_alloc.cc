// Seeded-bad fixture for tools/lint/priste_lint.py --self-test.
//
// The gap a body-only check leaves: the PRISTE_HOT_PATH bodies below contain
// no allocation tokens themselves, so the hot-path-alloc rule passes them
// clean — but they call helpers that DO allocate. The transitive rule must
// flag both chains:
//   GatherDot -> Grow                       (depth 1)
//   ReplicateDot -> Staging -> Grow         (depth 2, shared sink)
// Expected: 2 hot-path-alloc-transitive findings (one per hot root; the two
// ReplicateDot paths to the same sink dedupe to one).
#include <vector>

#define PRISTE_HOT_PATH __attribute__((annotate("priste_hot_path")))

namespace fixture {

std::vector<double>& Scratch();

// The allocating helper: container growth, no waiver.
double Grow(std::vector<double>& v, double x) {
  v.push_back(x);
  return v.back();
}

// Intermediate hop — itself clean, but reaches Grow.
double Staging(double x) { return Grow(Scratch(), x); }

// Hot kernel calling the allocating helper directly. Lexically clean.
PRISTE_HOT_PATH double GatherDot(const double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += Grow(Scratch(), a[i]);
  return acc;
}

// Hot kernel reaching the same sink two hops away. Lexically clean.
PRISTE_HOT_PATH double ReplicateDot(const double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += Staging(a[i]);
  return acc;
}

}  // namespace fixture
