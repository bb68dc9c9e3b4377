// Golden pin of the prediction service's evaluation sequence.
//
// A small OptStop-heavy run is executed under MLF-H (exact and with
// observation coarsening) and under the full MLFS. The Nelder-Mead fit counters — cold fits, warm fits,
// cache hits, objective evaluations — and the event-stream hash are pinned
// to the values captured before the curve-fit kernel was rewritten as
// typed, allocation-free basis residuals. Equal decisions alone would not
// prove the kernel unchanged: a fit that converged in a different number
// of evaluations to the same params would still pass a hash check. Equal
// counters prove every fit walked the same simplex path.
//
// Do NOT update these values to "fix" a failure — a mismatch means the fit
// arithmetic or its evaluation order changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/runner.hpp"

namespace mlfs {
namespace {

enum class FitMode { Service, Coarsened };

exp::RunRequest optstop_request(const std::string& scheduler, FitMode mode) {
  exp::RunRequest r;
  r.label = "predict-golden-" + scheduler;
  r.cluster.server_count = 6;
  r.cluster.gpus_per_server = 4;
  r.cluster.servers_per_rack = 2;
  r.engine.seed = 41;
  r.engine.max_sim_time = hours(72.0);
  r.engine.predict.coarsen = mode == FitMode::Coarsened;
  r.engine.predict.coarsen_head = 4;
  r.engine.predict.coarsen_per_octave = 1;
  r.trace.num_jobs = 30;
  r.trace.duration_hours = 3.0;
  r.trace.seed = 91;
  r.trace.max_gpu_request = 8;
  r.trace.policy_fixed_fraction = 0.0;
  r.trace.policy_optstop_fraction = 0.9;
  r.scheduler = scheduler;
  r.mlfs_config.rl.warmup_samples = 100;
  return r;
}

struct FitGolden {
  std::size_t fits_cold;
  std::size_t fits_warm;
  std::size_t cache_hits;
  std::size_t nm_objective_evals;
  std::uint64_t event_stream_hash;
};

void expect_golden(const exp::RunRequest& request, const FitGolden& golden) {
  const RunMetrics m = exp::execute_run(request);
  EXPECT_EQ(m.fits_cold, golden.fits_cold) << request.label;
  EXPECT_EQ(m.fits_warm, golden.fits_warm) << request.label;
  EXPECT_EQ(m.prediction_cache_hits, golden.cache_hits) << request.label;
  EXPECT_EQ(m.nm_objective_evals, golden.nm_objective_evals) << request.label;
  EXPECT_EQ(m.event_stream_hash, golden.event_stream_hash) << request.label;
}

TEST(PredictionGolden, MlfHServiceCounters) {
  expect_golden(optstop_request("MLF-H", FitMode::Service),
                {140, 92, 0, 97324, 0xa82ac01b9e268b80ull});
}

TEST(PredictionGolden, MlfHCoarsenedCounters) {
  expect_golden(optstop_request("MLF-H", FitMode::Coarsened),
                {162, 89, 0, 110545, 0xa82ac01b9e268b80ull});
}

TEST(PredictionGolden, MlfsServiceCounters) {
  expect_golden(optstop_request("MLFS", FitMode::Service),
                {89, 61, 221, 63930, 0xa46b83d0e6ce7b4cull});
}

}  // namespace
}  // namespace mlfs
