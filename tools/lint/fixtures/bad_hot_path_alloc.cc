// Seeded-violation fixture for priste_lint --self-test. NOT compiled.
// Expected findings: 6x hot-path-alloc.
#include <cstdlib>
#include <vector>

#define PRISTE_HOT_PATH

PRISTE_HOT_PATH double Accumulate(const std::vector<double>& xs) {
  std::vector<double> copy;
  copy.reserve(xs.size());  // hot-path-alloc #1: container growth
  double sum = 0.0;
  for (double x : xs) {
    copy.push_back(x);  // hot-path-alloc #2: container growth
    sum += x;
  }
  double* scratch =
      static_cast<double*>(malloc(sizeof(double)));  // hot-path-alloc #3
  *scratch = sum;
  sum = *scratch;
  free(scratch);
  return sum;
}

// Identical code OUTSIDE a marked body must NOT fire.
double Cold(const std::vector<double>& xs) {
  std::vector<double> copy;
  copy.reserve(xs.size());
  for (double x : xs) copy.push_back(x);
  return static_cast<double>(copy.size());
}

// A marked declaration with the body elsewhere must NOT fire.
PRISTE_HOT_PATH double DeclaredOnly(const std::vector<double>& xs);

// Waiver scope ends WITH the wrapped statement it covers: the waiver spans
// the two-line malloc statement, but the push_back in the NEXT statement is
// outside its scope and must still fire.
PRISTE_HOT_PATH double WaiverScopeEnds(std::vector<double>* scratch) {
  // priste-lint: allow(hot-path-alloc) covers only this wrapped statement
  double* block = static_cast<double*>(
      malloc(sizeof(double)));
  scratch->push_back(*block);  // hot-path-alloc #4: past the waived statement
  free(block);
  return scratch->back();
}

// A waiver after code covers only the statement it follows: the push_back on
// the next line is a statement of its own and must still fire.
PRISTE_HOT_PATH double TrailingWaiver(std::vector<double>* a,
                                      std::vector<double>* b) {
  a->push_back(1.0);  // priste-lint: allow(hot-path-alloc) amortized warm-up
  b->push_back(2.0);  // hot-path-alloc #5: not covered by the waiver above
  return a->back() + b->back();
}

// An edge waiver is not a body waiver: allow(hot-path-alloc-transitive) cuts
// call edges out of a marked body, so the body's own push_back must fire.
PRISTE_HOT_PATH double EdgeWaiverIsNotABodyWaiver(std::vector<double>* v) {
  // priste-lint: allow(hot-path-alloc-transitive) names the transitive rule
  v->push_back(3.0);  // hot-path-alloc #6
  return v->back();
}
