#include "priste/core/joint.h"

#include <utility>

#include "priste/common/check.h"
#include "priste/core/prior.h"

namespace priste::core {

JointCalculator::JointCalculator(const LiftedEventModel* model, linalg::Vector pi)
    : model_(model), pi_(std::move(pi)) {
  PRISTE_CHECK(model_ != nullptr);
  PRISTE_CHECK(pi_.size() == model_->num_states());
  prior_event_ = EventPrior(*model_, pi_);
}

void JointCalculator::Push(const linalg::Vector& emission_column) {
  PRISTE_CHECK(emission_column.size() == model_->num_states());
  if (t_ == 0) {
    alpha_ = model_->LiftInitial(pi_);
    scratch_ = linalg::Vector(model_->lifted_size());
  } else {
    // Ping-pong with the scratch buffer: no allocation per push.
    model_->StepRowInto(alpha_, t_, scratch_);
    std::swap(alpha_, scratch_);
  }
  model_->ApplyEmissionInPlace(emission_column, alpha_);
  ++t_;
}

double JointCalculator::JointEvent() const {
  PRISTE_CHECK_MSG(t_ >= 1, "no observations pushed");
  if (t_ <= model_->event_end()) {
    return alpha_.Dot(model_->SuffixTrue(t_));
  }
  // After the event window the event state is frozen; the accepting mass is
  // the joint probability.
  return alpha_.Dot(model_->AcceptingMask());
}

double JointCalculator::Marginal() const {
  PRISTE_CHECK_MSG(t_ >= 1, "no observations pushed");
  return alpha_.Sum();
}

double JointCalculator::LikelihoodRatio() const {
  PRISTE_CHECK_MSG(prior_event_ > 0.0 && prior_event_ < 1.0,
                   "likelihood ratio needs a non-degenerate event prior");
  const double given_event = JointEvent() / prior_event_;
  const double given_negation = JointNotEvent() / (1.0 - prior_event_);
  PRISTE_CHECK_MSG(given_negation > 0.0,
                   "observations impossible given the event negation");
  return given_event / given_negation;
}

}  // namespace priste::core
