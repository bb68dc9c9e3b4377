// Unified prediction subsystem: one engine-owned service fronting both the
// Optimus-style runtime predictor and the learning-curve extrapolator, with
// the curve fits made *incremental* (the substrate MLFS §3.5 OptStop
// assumes — SLAQ refits curves as new points arrive instead of from
// scratch).
//
// ## Chain-canonical fit semantics
//
// The fit for (job, done = k) is defined as a warm-started *chain* over the
// job's canonical check points L = { k : k % check_interval == 0 && k >= 3 }
// (exactly the points SimEngine::should_stop evaluates OptStop at):
//
//  * link 1: cold Nelder-Mead from each basis' init simplex;
//  * link j > 1, per basis: first a settled-fit probe — the previous
//    link's params are re-evaluated on the new prefix (one objective
//    evaluation); if the residual has not degraded past a settle factor ×
//    previous value (+ epsilon) the params carry forward without
//    refitting. Otherwise a warm Nelder-Mead seeded from the previous
//    link's fitted params with initial_step derived from the previous
//    parameter drift; if the warm objective regresses past a regression
//    factor × previous value the cold fit is also computed and wins if
//    better (a "restart", bounded by kRestartBudget — once the budget is
//    spent the basis is refit cold directly, with no settle probe);
//  * basis freezing: a non-best basis whose combination weight stays below
//    a freeze threshold for a streak of consecutive links (after a minimum
//    chain length) stops being refit; its last (params, rmse) keep
//    participating in the weighted prediction.
//
// The policy's other constants live in service.cpp. The chain is a pure
// function of the observation prefix and the config, and the observations
// are a pure function of the job's loss curve (entry i is
// LossCurve::accuracy_at(i + 1)), so the service keeps no observation
// buffer: when a query needs new links, the prefix is read off the curve
// into a scratch vector that lives only while those links are fitted. Per
// job it keeps the computed links (one new link per check, stored links
// reused verbatim on fault-rollback re-entry) and a memo of the last
// (link, target) query. A fresh service asked about the same (job, done)
// therefore returns bit-identical answers; the tests use exactly that as
// the from-scratch oracle. Observation coarsening (opt-in) is the one
// *approximating* mode: it subsamples the tail of long observation
// prefixes logarithmically and changes results, so it participates in the
// engine config fingerprint. Per-job state is evicted when the job reaches
// a terminal state.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/binio.hpp"
#include "predict/learning_curve.hpp"
#include "predict/runtime_predictor.hpp"
#include "workload/job.hpp"

namespace mlfs {

struct PredictConfig {
  /// Opt-in observation coarsening for very long jobs: the first
  /// coarsen_head observations are kept exactly; the tail keeps
  /// ~coarsen_per_octave log-spaced points per octave plus always the
  /// last observation. Changes results (approximation mode).
  bool coarsen = false;
  int coarsen_head = 32;
  int coarsen_per_octave = 8;

  /// Throws ContractViolation on invalid values.
  void validate() const;
};

/// Run-long counters surfaced through RunMetrics. All except fit_wall_ms
/// are deterministic per config (and participate in deterministic_equal);
/// fit_wall_ms is a real clock.
struct PredictStats {
  std::size_t fits_cold = 0;          ///< Nelder-Mead runs from the init simplex
  std::size_t fits_warm = 0;          ///< Nelder-Mead runs seeded from a previous link
  std::size_t cache_hits = 0;         ///< memo / stored-link reuse (no fitting at all)
  std::size_t nm_objective_evals = 0; ///< objective evaluations across all fits
  double fit_wall_ms = 0.0;           ///< wall-clock spent fitting + combining
};

class PredictionService {
 public:
  PredictionService(const PredictConfig& config, int check_interval,
                    const LearningCurveConfig& curve_config = {});

  /// OptStop substrate: prediction at job.spec().max_iterations given the
  /// job's completed iterations, under the chain-canonical semantics
  /// above. Below the first canonical link this falls back to the last
  /// observation with zero confidence (mirroring predict_at).
  CurvePrediction predict_at_max(const Job& job);

  /// Terminal-state hooks: completion feeds the runtime predictor's
  /// signature history and evicts the curve-fit state; failure evicts
  /// only (a truncated run would poison the duration estimates).
  void on_job_complete(const Job& job);
  void on_job_failed(const Job& job);

  // Runtime-prediction passthroughs (Optimus' ranking quantity).
  double predict_remaining_seconds(const Job& job) const {
    return runtime_.predict_remaining_seconds(job);
  }
  double predict_execution_seconds(const Job& job) const {
    return runtime_.predict_execution_seconds(job);
  }

  // Ground-truth curve reads for quality-driven schedulers (SLAQ /
  // HyperSched) — routed through the service so every consumer shares one
  // substrate; these are exact (the simulator's curve is the oracle the
  // paper's §3.1 prediction accuracy stands in for).
  double loss_at(const Job& job, int iteration) const {
    return job.curve().loss_at(iteration);
  }
  double accuracy_at(const Job& job, int iteration) const {
    return job.curve().accuracy_at(iteration);
  }

  RuntimePredictor& runtime() { return runtime_; }
  const RuntimePredictor& runtime() const { return runtime_; }

  const PredictConfig& config() const { return config_; }
  const PredictStats& stats() const { return stats_; }
  int check_interval() const { return check_interval_; }
  /// Smallest canonical chain link (first OptStop check point).
  int first_link() const;
  /// Largest canonical link <= done, or 0 when none exists yet.
  int quantize(int done) const;

  // ---- introspection (audit / snapshot / tests) ----

  /// Cold restarts one (job, basis) chain may spend before it is refit
  /// cold at every link (see file comment).
  static constexpr int kRestartBudget = 4;

  /// One basis' state at one chain link.
  struct BasisFitRec {
    std::vector<double> params;
    double rmse = 0.0;
    double value = 0.0;   ///< raw objective (MSE) — the regression baseline
    double drift = -1.0;  ///< max |param delta| vs previous link; < 0 = undefined
    bool frozen = false;
    int low_streak = 0;   ///< consecutive links below the freeze weight
    int restarts = 0;     ///< cold restarts consumed so far
  };
  struct LinkRecord {
    int done = 0;  ///< canonical check point this link was fitted at
    std::vector<BasisFitRec> basis;
  };
  struct JobState {
    /// All computed chain links, ascending by done (rollback re-entry is
    /// a lookup, and the chain resumes from the last element).
    std::vector<LinkRecord> links;
    // Last combined prediction, keyed by (link, target).
    bool memo_valid = false;
    int memo_done = 0;
    int memo_target = 0;
    CurvePrediction memo;
  };
  /// Live per-job curve-fit state.
  const std::map<JobId, JobState>& cached_states() const { return states_; }

  /// Snapshot hooks: curve-fit caches + counters. The runtime predictor
  /// serializes separately (SimEngine's stable "predictor" section).
  /// restore_state rejects a malformed chain with a ContractViolation
  /// before sizing anything from it: a link count the remaining bytes
  /// cannot hold, link check points that are not the consecutive canonical
  /// ones, a basis count other than bases().size(), or a params vector
  /// whose length is not its basis' dimension.
  void save_state(io::BinWriter& w) const;
  void restore_state(io::BinReader& r);

 private:
  /// Ensures the chain is computed through canonical link `link_done` and
  /// returns its record. Counts a cache hit when the link already exists.
  const LinkRecord* advance_links(JobState& st, const Job& job, int link_done);
  /// Computes one new chain link at `done` from the chain tail, fitting
  /// the first `done` entries of `observed`.
  void fit_link(JobState& st, std::span<const double> observed, int done);
  CurvePrediction prediction_from(const LinkRecord& rec, int target) const;

  PredictConfig config_;
  int check_interval_;
  LearningCurveConfig curve_config_;
  RuntimePredictor runtime_;
  std::map<JobId, JobState> states_;
  /// ilog's ln(x + e) denominators, grown to the longest prefix fitted.
  /// A pure function of the index, so it is not serialized.
  curve_detail::IlogTable ilog_table_;
  PredictStats stats_;
};

}  // namespace mlfs
