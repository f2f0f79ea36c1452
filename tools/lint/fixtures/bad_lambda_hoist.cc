// Seeded-bad fixture for tools/lint/priste_lint.py --self-test.
//
// The lambda-hoisting dodge: a lambda defined INLINE inside a marked body is
// swallowed with that body, so its allocations were always attributed to the
// enclosing function — but a lambda hoisted into a NAMED VARIABLE at
// namespace scope used to vanish from the graph entirely (the variable name
// resolved to no definition), letting a hot path launder its allocation
// through `hoisted(x)`. Named-lambda heads are now graph nodes:
//   Kernel  -> hoisted_alloc                 (depth 1: lambda allocates)
//   Kernel2 -> hoisted_chain -> GrowHelper   (depth 2: lambda calls allocator)
// Expected: 2 hot-path-alloc-transitive findings.
#include <vector>

#define PRISTE_HOT_PATH __attribute__((annotate("priste_hot_path")))

namespace fixture {

std::vector<double>& Scratch();

// Allocating helper reached through the second lambda.
double GrowHelper(double x) {
  Scratch().push_back(x);
  return x;
}

// Hoisted named lambda that allocates directly.
auto hoisted_alloc = [](double x) {
  Scratch().push_back(x);
  return x;
};

// Hoisted named lambda that is itself clean but calls an allocator.
auto hoisted_chain = [](double x) { return GrowHelper(x); };

// Lexically clean hot bodies: the allocation lives behind the lambda
// variable. Both chains must be flagged.
PRISTE_HOT_PATH double Kernel(const double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += hoisted_alloc(a[i]);
  return acc;
}

PRISTE_HOT_PATH double Kernel2(const double* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += hoisted_chain(a[i]);
  return acc;
}

}  // namespace fixture
