#include "priste/hmm/forward_backward.h"

#include <limits>

#include <gtest/gtest.h>

namespace priste::hmm {
namespace {

TEST(PosteriorUpdateTest, BayesRuleKnownValue) {
  const auto post = PosteriorUpdate(linalg::Vector{0.5, 0.5},
                                    linalg::Vector{0.9, 0.1});
  ASSERT_TRUE(post.ok());
  EXPECT_NEAR((*post)[0], 0.9, 1e-12);
  EXPECT_NEAR((*post)[1], 0.1, 1e-12);
}

TEST(PosteriorUpdateTest, RejectsImpossibleEvidence) {
  EXPECT_FALSE(PosteriorUpdate(linalg::Vector{1.0, 0.0},
                               linalg::Vector{0.0, 1.0}).ok());
  EXPECT_FALSE(PosteriorUpdate(linalg::Vector{0.5, 0.5}, linalg::Vector{0.1}).ok());
}

TEST(PosteriorUpdateTest, RejectsNonFiniteOrNegativeEntries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const linalg::Vector prior{0.5, 0.5};
  // Each row once as the evidence and once as the prior.
  for (const linalg::Vector& bad : {linalg::Vector{nan, 0.5},
                                    linalg::Vector{inf, 0.5},
                                    linalg::Vector{-0.1, 0.5}}) {
    for (const auto& post :
         {PosteriorUpdate(prior, bad), PosteriorUpdate(bad, prior)}) {
      ASSERT_FALSE(post.ok()) << bad.ToString();
      EXPECT_EQ(post.error().code, StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace priste::hmm
