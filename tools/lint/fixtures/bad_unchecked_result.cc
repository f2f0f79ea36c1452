// Seeded-bad fixture for tools/lint/priste_lint.py --self-test.
//
// Calls whose Result<T> return value is discarded.
// Four violations — including the two [[nodiscard]] cannot stop:
//   1. bare statement discard            WriteThing(1);
//   2. cast-laundered discard            (void)WriteThing(2);
//   3. comma-operator discard            WriteThing(3), Touch();
//   4. if-statement-body discard         if (cond) WriteThing(4);
// The consumed forms below must NOT fire.
// Expected: 4 unchecked-result findings.

namespace fixture {

template <typename T>
struct Result {
  bool ok() const { return true; }
  bool has_value() const { return true; }
};

Result<void> WriteThing(int v);
Result<int> ReadThing(int v);
void Touch();
void Consume(Result<void> s);

Result<void> WriteThing(int v) { return Result<void>{}; }
Result<int> ReadThing(int v) { return Result<int>{}; }

void Violations(bool cond) {
  WriteThing(1);                 // 1: bare discard
  (void)WriteThing(2);           // 2: cast-laundered
  WriteThing(3), Touch();        // 3: comma operator
  if (cond) WriteThing(4);       // 4: if-body discard
}

Result<void> ConsumedForms(bool cond) {
  Result<void> s = WriteThing(5);        // assigned
  if (!WriteThing(6).ok()) return s;     // chained access
  Consume(WriteThing(7));                // argument
  const auto r = ReadThing(8);           // assigned (Result<T>)
  if (r.has_value() && cond) return WriteThing(9);  // returned
  // priste-lint: allow(unchecked-result) fixture: waiver honored
  WriteThing(10);
  return s;
}

}  // namespace fixture
