// Task-priority determination (§3.3.1, Eqs. 2-6).
//
//   P'^ML_{k,J} = L_J · (1/I) · (δl_{I-1} / Σ_{j<I} δl_j) · S^J_k     (Eq. 2)
//   P^ML        = P'^ML + γ Σ_{i∈child(k)} P^ML_i                      (Eq. 3)
//   P'^C_{k,J}  = γd/(d_{k,J} − t) + γr/r_{k,J} + γw·w_{k,J}           (Eq. 4)
//   P^C         = P'^C + γ Σ_{i∈child(k)} P^C_i                        (Eq. 5)
//   P_{k,J}     = α·P^ML + (1−α)·P^C                                   (Eq. 6)
//
// Time quantities in Eq. 4 are expressed in hours (and slacks clamped to a
// minimum) so the three terms have comparable magnitude under the paper's
// default weights. The parameter-server task receives the highest priority
// in its job (§3.3.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "sim/cluster.hpp"

namespace mlfs::core {

class PriorityCalculator {
 public:
  explicit PriorityCalculator(const PriorityParams& params);

  /// Combined priorities P_{k,J} (Eq. 6) for every task of `job`, indexed
  /// by local task index. Finished/removed tasks get 0.
  std::vector<double> job_priorities(const Cluster& cluster, const Job& job, SimTime now) const;

  /// The ML-feature component only (Eq. 3) — exposed for tests.
  std::vector<double> ml_priorities(const Cluster& cluster, const Job& job) const;

  /// The computation-feature component only (Eq. 5) — exposed for tests.
  std::vector<double> computation_priorities(const Cluster& cluster, const Job& job,
                                             SimTime now) const;

  /// Eq. 2's loss-reduction share δl_{I-1} / Σ_{j<I} δl_j, clamped to
  /// [0, 1]. The raw ratio can leave that range on adversarial curves (a
  /// loss *increase* makes δl negative), which would flip the sign of the
  /// whole ML priority and push the job below freshly-arrived work; the
  /// clamp pins such iterations to "no ML urgency" instead. Returns 1 when
  /// there is no history yet (first iteration: full importance).
  static double loss_share(double last_delta, double cumulative);

  /// Per-task deadline d_{k,J}: the job deadline pulled earlier for tasks
  /// deeper in the dependency graph (tasks whose descendants still need
  /// time must finish sooner), following the [21]-style derivation the
  /// paper cites.
  static double task_deadline(const Job& job, std::size_t local_index,
                              std::span<const std::uint32_t> depth_to_sink);

  const PriorityParams& params() const { return params_; }

 private:
  PriorityParams params_;
};

}  // namespace mlfs::core
