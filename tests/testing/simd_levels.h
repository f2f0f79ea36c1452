#ifndef PRISTE_TESTS_TESTING_SIMD_LEVELS_H_
#define PRISTE_TESTS_TESTING_SIMD_LEVELS_H_

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "priste/linalg/kernels.h"

namespace priste::linalg::kernels {

/// Prints a SimdLevel parameter by name in test failure messages.
inline void PrintTo(SimdLevel level, std::ostream* os) {
  *os << SimdLevelName(level);
}

}  // namespace priste::linalg::kernels

namespace priste::testing {

/// The SIMD dispatch tables, each of which the bit-identity tests compare
/// with the scalar one.
inline const auto kSimdLevels =
    ::testing::Values(linalg::kernels::SimdLevel::kAvx2,
                      linalg::kernels::SimdLevel::kAvx512);

/// Names a kSimdLevels instance "avx2" or "avx512".
inline std::string SimdLevelParamName(
    const ::testing::TestParamInfo<linalg::kernels::SimdLevel>& info) {
  return linalg::kernels::SimdLevelName(info.param);
}

/// A fixture over kSimdLevels that skips, with a message, the tables this
/// build does not have or this CPU cannot run.
class SimdLevelTest
    : public ::testing::TestWithParam<linalg::kernels::SimdLevel> {
 protected:
  void SetUp() override {
    if (GetParam() > linalg::kernels::WidestSimdLevel()) {
      GTEST_SKIP() << "no " << linalg::kernels::SimdLevelName(GetParam())
                   << " kernel table on this build and CPU";
    }
  }
};

/// Selects a dispatch table for its scope and restores the previous one on
/// exit, so a failing assertion cannot leak a forced table into later tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(linalg::kernels::SimdLevel level)
      : previous_(linalg::kernels::SetSimdLevelForTest(level)) {}
  ~ScopedSimdLevel() { linalg::kernels::SetSimdLevelForTest(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  linalg::kernels::SimdLevel previous_;
};

}  // namespace priste::testing

#endif  // PRISTE_TESTS_TESTING_SIMD_LEVELS_H_
