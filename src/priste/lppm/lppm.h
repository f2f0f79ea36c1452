#ifndef PRISTE_LPPM_LPPM_H_
#define PRISTE_LPPM_LPPM_H_

#include "priste/common/random.h"
#include "priste/hmm/emission_model.h"

namespace priste::lppm {

/// A location privacy-preserving mechanism in the paper's abstraction: an
/// emission matrix taking the user's true cell as input and producing a
/// perturbed cell (Section II-A). Implementations expose the full emission
/// matrix — PriSTE's quantification component consumes the columns p̃_o —
/// and sampling consistent with it.
class Lppm {
 public:
  virtual ~Lppm() = default;

  /// Number of map cells; outputs share the same domain.
  virtual size_t num_states() const = 0;

  /// The mechanism's emission matrix (row i = output distribution of true
  /// cell i). Must stay valid while the mechanism is alive.
  virtual const hmm::EmissionMatrix& emission() const = 0;

  /// Samples a perturbed cell for `true_cell` from emission row
  /// `true_cell` — by construction exactly consistent with emission().
  virtual int Perturb(int true_cell, Rng& rng) const;

  /// The emission column p̃_o, bit-equal to emission().EmissionColumn(o),
  /// which the default returns. A mechanism that keeps a compact form
  /// overrides it to skip building the matrix.
  virtual linalg::Vector EmissionColumn(int o) const;

  /// Human-readable mechanism name for reports.
  virtual std::string name() const = 0;
};

}  // namespace priste::lppm

#endif  // PRISTE_LPPM_LPPM_H_
