// PredictionService (predict/service.hpp): the incremental memoized
// service must answer every query bit for bit like a fresh service (the
// from-scratch chain recompute), reuse stored links on rollback re-entry,
// memoize repeated queries, evict terminal jobs, survive a snapshot
// round-trip bit-exactly, and reject invalid configurations.
#include "predict/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "workload/model_zoo.hpp"

namespace mlfs {
namespace {

Job make_job(int max_iterations = 60, double a_max = 0.85, double kappa = 9.0,
             JobId id = 0) {
  JobSpec spec;
  spec.id = id;
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.gpu_request = 2;
  spec.max_iterations = max_iterations;
  spec.stop_policy = StopPolicy::OptStop;
  spec.min_allowed_policy = StopPolicy::OptStop;
  spec.curve.max_accuracy = a_max;
  spec.curve.kappa = kappa;
  spec.seed = 7;
  return std::move(ModelZoo::instantiate(spec, 0).job);
}

void advance(Job& job, int iterations) {
  for (int i = 0; i < iterations; ++i) job.complete_iteration();
}

TEST(PredictConfigValidate, RejectsInvalidFields) {
  const auto expect_reject = [](auto&& mutate) {
    PredictConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), ContractViolation);
  };
  expect_reject([](PredictConfig& c) { c.coarsen_head = 2; });
  expect_reject([](PredictConfig& c) { c.coarsen_per_octave = 0; });
  EXPECT_NO_THROW(PredictConfig{}.validate());
}

TEST(PredictionService, CanonicalLinkArithmetic) {
  const PredictionService svc({}, /*check_interval=*/5);
  // min_observations = 3 → first check point at or after 3 on the 5-grid.
  EXPECT_EQ(svc.first_link(), 5);
  EXPECT_EQ(svc.quantize(4), 0);   // before the first link: fallback regime
  EXPECT_EQ(svc.quantize(5), 5);
  EXPECT_EQ(svc.quantize(14), 10);
  const PredictionService unit({}, /*check_interval=*/1);
  EXPECT_EQ(unit.first_link(), 3);
  EXPECT_EQ(unit.quantize(2), 0);
  EXPECT_EQ(unit.quantize(3), 3);
}

TEST(PredictionService, IncrementalChainMatchesFreshServiceBitwise) {
  // The from-scratch oracle: a fresh service asked about (job, done)
  // recomputes the whole chain with nothing cached. The incremental
  // service, shared by two jobs with different curves and driven through
  // random advances, fault rollbacks and repeated queries, must give the
  // same answer bit for bit at every step, with and without coarsening,
  // and never run more fits than the fresh services together.
  Rng rng(1616);
  bool coarse_diverged_from_exact = false;
  for (int trial = 0; trial < 24; ++trial) {
    const int interval = static_cast<int>(rng.uniform_int(1, 7));
    PredictConfig config;
    config.coarsen = trial % 2 == 1;
    config.coarsen_head = static_cast<int>(rng.uniform_int(3, 12));
    config.coarsen_per_octave = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<Job> jobs;
    for (JobId id = 0; id < 2; ++id) {
      jobs.push_back(make_job(static_cast<int>(rng.uniform_int(30, 120)),
                              rng.uniform(0.5, 0.95), rng.uniform(1.0, 40.0), id));
    }
    PredictionService svc(config, interval);
    std::size_t fresh_fits = 0;
    for (int step = 0; step < 60; ++step) {
      Job& job = jobs[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      const double u = rng.uniform();
      const int done = job.completed_iterations();
      if (u < 0.6) {
        const int room = job.spec().max_iterations - done;
        advance(job, std::min(room, static_cast<int>(rng.uniform_int(1, 2 * interval))));
      } else if (u < 0.8 && done > 0) {
        job.rollback_iterations(static_cast<int>(rng.uniform_int(1, done)));
      }  // otherwise: the same (job, done) is queried again
      PredictionService fresh(config, interval);
      const CurvePrediction want = fresh.predict_at_max(job);
      fresh_fits += fresh.stats().fits_cold + fresh.stats().fits_warm;
      const CurvePrediction got = svc.predict_at_max(job);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.accuracy),
                std::bit_cast<std::uint64_t>(want.accuracy))
          << "trial " << trial << " step " << step << " job " << job.id()
          << " done=" << job.completed_iterations();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.confidence),
                std::bit_cast<std::uint64_t>(want.confidence))
          << "trial " << trial << " step " << step << " job " << job.id()
          << " done=" << job.completed_iterations();
      if (config.coarsen) {
        PredictionService exact({}, interval);
        if (exact.predict_at_max(job).accuracy != got.accuracy) {
          coarse_diverged_from_exact = true;
        }
      }
    }
    EXPECT_LE(svc.stats().fits_cold + svc.stats().fits_warm, fresh_fits) << "trial " << trial;
  }
  // Coarsening is an approximation: somewhere it must change the answer.
  EXPECT_TRUE(coarse_diverged_from_exact);
}

TEST(PredictionService, MatchesLegacyColdFitPathBitwise) {
  // The stateless cold-fit path recomputes the whole chain for every query;
  // a fresh service asked about (job, done) does exactly that. Stepping one
  // iteration at a time, the incremental warm-started chain must reproduce
  // it bit for bit at every OptStop check point.
  for (const int interval : {1, 4}) {
    Job job = make_job();
    PredictionService service({}, interval);
    std::size_t cold_evals = 0;
    for (int i = 0; i < job.spec().max_iterations; ++i) {
      advance(job, 1);
      if (job.completed_iterations() % interval != 0) continue;
      PredictionService cold({}, interval);
      const CurvePrediction pc = cold.predict_at_max(job);
      cold_evals += cold.stats().nm_objective_evals;
      const CurvePrediction ps = service.predict_at_max(job);
      EXPECT_EQ(ps.accuracy, pc.accuracy) << "done=" << job.completed_iterations();
      EXPECT_EQ(ps.confidence, pc.confidence) << "done=" << job.completed_iterations();
    }
    EXPECT_GT(service.stats().nm_objective_evals, 0u);
    // The cold path recomputes every chain prefix; the service fits each
    // link once, so it must do strictly less Nelder-Mead work.
    EXPECT_LT(service.stats().nm_objective_evals, cold_evals);
  }
}

TEST(PredictionService, CoarseningIsDeterministicAcrossModes) {
  // Coarsening changes the fit (approximation mode) but applies to the
  // incremental service and the cold recompute alike, so the two still
  // agree bit for bit — and the coarse fit must differ from the exact one
  // on a long tail.
  PredictConfig coarse_on;
  coarse_on.coarsen = true;
  coarse_on.coarsen_head = 8;
  coarse_on.coarsen_per_octave = 4;

  Job a = make_job(120);
  Job c = make_job(120);
  PredictionService svc(coarse_on, /*check_interval=*/4);
  PredictionService exact({}, /*check_interval=*/4);
  bool coarse_diverged_from_exact = false;
  for (int i = 0; i < 120; ++i) {
    advance(a, 1);
    advance(c, 1);
    if (a.completed_iterations() % 4 != 0) continue;
    PredictionService cold(coarse_on, /*check_interval=*/4);
    const CurvePrediction ps = svc.predict_at_max(a);
    const CurvePrediction pl = cold.predict_at_max(a);
    const CurvePrediction pe = exact.predict_at_max(c);
    EXPECT_EQ(ps.accuracy, pl.accuracy) << "done=" << a.completed_iterations();
    EXPECT_EQ(ps.confidence, pl.confidence) << "done=" << a.completed_iterations();
    if (ps.accuracy != pe.accuracy) coarse_diverged_from_exact = true;
  }
  EXPECT_TRUE(coarse_diverged_from_exact);
  EXPECT_GT(svc.stats().fits_cold + svc.stats().fits_warm, 0u);
}

TEST(PredictionService, BelowFirstLinkFallsBackToLastObservation) {
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/5);
  const CurvePrediction empty = svc.predict_at_max(job);
  EXPECT_EQ(empty.accuracy, 0.0);
  EXPECT_EQ(empty.confidence, 0.0);
  advance(job, 2);  // still below the first canonical link
  const CurvePrediction early = svc.predict_at_max(job);
  EXPECT_EQ(early.accuracy, job.curve().accuracy_at(2));
  EXPECT_EQ(early.confidence, 0.0);
  EXPECT_EQ(svc.stats().fits_cold + svc.stats().fits_warm, 0u);
}

TEST(PredictionService, MemoizesRepeatedQueries) {
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, 9);
  const CurvePrediction first = svc.predict_at_max(job);
  const std::size_t evals = svc.stats().nm_objective_evals;
  const std::size_t hits = svc.stats().cache_hits;
  const CurvePrediction again = svc.predict_at_max(job);  // MLF-C's repeat query
  EXPECT_EQ(again.accuracy, first.accuracy);
  EXPECT_EQ(again.confidence, first.confidence);
  EXPECT_EQ(svc.stats().nm_objective_evals, evals);  // no refit
  EXPECT_EQ(svc.stats().cache_hits, hits + 1);
}

TEST(PredictionService, RollbackReentryReusesStoredLinks) {
  // A fault rollback drops completed_iterations to an earlier check point;
  // the chain is a pure function of the observation prefix, so the stored
  // link answers without any fitting.
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, 6);
  const CurvePrediction at6 = svc.predict_at_max(job);
  advance(job, 3);
  (void)svc.predict_at_max(job);  // chain now through done=9
  const std::size_t evals = svc.stats().nm_objective_evals;
  job.rollback_iterations(3);  // back to done=6
  const CurvePrediction replay = svc.predict_at_max(job);
  EXPECT_EQ(replay.accuracy, at6.accuracy);
  EXPECT_EQ(replay.confidence, at6.confidence);
  EXPECT_EQ(svc.stats().nm_objective_evals, evals);  // pure lookup
}

TEST(PredictionService, TerminalJobsAreEvicted) {
  Job job = make_job();
  Job other = make_job(60, 0.85, 9.0, /*id=*/1);
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, 6);
  advance(other, 6);
  (void)svc.predict_at_max(job);
  (void)svc.predict_at_max(other);
  EXPECT_EQ(svc.cached_states().size(), 2u);
  svc.on_job_failed(job);
  EXPECT_EQ(svc.cached_states().count(job.id()), 0u);
  svc.on_job_complete(other);
  EXPECT_TRUE(svc.cached_states().empty());
}

TEST(PredictionService, SnapshotRoundTripIsBitExact) {
  Job job = make_job();
  PredictionService svc({}, /*check_interval=*/3);
  advance(job, 9);
  (void)svc.predict_at_max(job);

  std::ostringstream bytes;
  {
    io::BinWriter w(bytes);
    svc.save_state(w);
  }
  PredictionService restored({}, /*check_interval=*/3);
  {
    std::istringstream in(bytes.str());
    io::BinReader r(in);
    restored.restore_state(r);
  }
  EXPECT_EQ(restored.stats().fits_cold, svc.stats().fits_cold);
  EXPECT_EQ(restored.stats().fits_warm, svc.stats().fits_warm);
  EXPECT_EQ(restored.stats().cache_hits, svc.stats().cache_hits);
  EXPECT_EQ(restored.stats().nm_objective_evals, svc.stats().nm_objective_evals);
  EXPECT_EQ(restored.cached_states().size(), 1u);

  // Bit-identical state must re-serialize to the exact same bytes...
  std::ostringstream again;
  {
    io::BinWriter w(again);
    restored.save_state(w);
  }
  EXPECT_EQ(again.str(), bytes.str());

  // ...and continue the chain exactly like the original.
  advance(job, 3);
  const CurvePrediction a = svc.predict_at_max(job);
  const CurvePrediction b = restored.predict_at_max(job);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.confidence, b.confidence);
}

// ------------------------------------------- crafted "predict" payloads

/// One chain link as restore_state reads it.
struct CraftedLink {
  std::int64_t done = 0;
  std::uint64_t basis_count = 3;
  std::vector<std::size_t> param_sizes = {2, 3, 2};
};

/// A "predict" section payload holding one job with the given chain.
/// `link_count` overrides the written link count.
std::string crafted_state(const std::vector<CraftedLink>& links,
                          std::uint64_t link_count = ~0ull) {
  std::ostringstream os(std::ios::binary);
  io::BinWriter w(os);
  for (int i = 0; i < 4; ++i) w.u64(0);  // counters
  w.f64(0.0);                            // fit_wall_ms
  w.u64(1);                              // jobs
  w.u64(0);                              // job id
  w.u64(link_count == ~0ull ? links.size() : link_count);
  for (const CraftedLink& link : links) {
    w.i64(link.done);
    w.u64(link.basis_count);
    for (const std::size_t n : link.param_sizes) {
      w.vec_f64(std::vector<double>(n, 0.1));
      w.f64(0.01);   // rmse
      w.f64(1e-4);   // value
      w.f64(-1.0);   // drift
      w.boolean(false);
      w.i64(0);      // low_streak
      w.i64(0);      // restarts
    }
  }
  w.boolean(false);  // memo
  w.i64(0);
  w.i64(0);
  w.f64(0.0);
  w.f64(0.0);
  return os.str();
}

/// Restores `bytes` into a service checking every `interval` iterations
/// (first link 3 for both 1 and 3).
void restore_crafted(const std::string& bytes, int interval = 3) {
  PredictionService svc({}, interval);
  std::istringstream in(bytes, std::ios::binary);
  io::BinReader r(in);
  svc.restore_state(r);
}

void expect_rejected(const std::string& bytes, const std::string& needle, int interval = 3) {
  try {
    restore_crafted(bytes, interval);
    FAIL() << "crafted state accepted; expected rejection mentioning '" << needle << "'";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(PredictionServiceRestore, WellFormedCraftedChainAccepted) {
  EXPECT_NO_THROW(restore_crafted(crafted_state({{3}, {6}, {9}})));
  EXPECT_NO_THROW(restore_crafted(crafted_state({})));
  EXPECT_NO_THROW(restore_crafted(crafted_state({{3}, {4}, {5}}), 1));
}

TEST(PredictionServiceRestore, RejectsWrongBasisCount) {
  CraftedLink two;
  two.done = 3;
  two.basis_count = 2;
  two.param_sizes = {2, 3};
  expect_rejected(crafted_state({two}), "2 bases, expected 3");
}

TEST(PredictionServiceRestore, RejectsParamsOfTheWrongDimension) {
  CraftedLink wide;
  wide.done = 3;
  wide.param_sizes = {3, 3, 2};  // mmf has two params
  expect_rejected(crafted_state({wide}), "basis mmf has 3 params, expected 2");
  CraftedLink narrow;
  narrow.done = 3;
  narrow.param_sizes = {2, 3, 1};  // ilog has two params
  expect_rejected(crafted_state({narrow}), "basis ilog has 1 params, expected 2");
}

TEST(PredictionServiceRestore, RejectsLinksOffTheCanonicalCheckPoints) {
  expect_rejected(crafted_state({{4}}), "done=4");             // not a multiple
  expect_rejected(crafted_state({{6}}), "done=6");             // skips the first link
  expect_rejected(crafted_state({{3}, {3}}), "done=3");        // not ascending
  expect_rejected(crafted_state({{3}, {9}}), "done=9");        // gap in the chain
  expect_rejected(crafted_state({{3}, {6}, {3}}), "done=3");   // descending
  expect_rejected(crafted_state({{3}, {5}}), "done=5", 1);     // gap at interval 1
  expect_rejected(crafted_state({{-3}}), "done=-3");
}

TEST(PredictionServiceRestore, RejectsCountsThatWouldDriveUnboundedAllocation) {
  // Link count far beyond what the section's bytes can hold: rejected
  // before anything is reserved for it.
  expect_rejected(crafted_state({}, 1ull << 40), "chain links but only");
  expect_rejected(crafted_state({{3}}, ~1ull), "chain links but only");
  // Basis count far beyond the family: rejected before resizing.
  CraftedLink huge;
  huge.done = 3;
  huge.basis_count = 1ull << 40;
  expect_rejected(crafted_state({huge}), "bases, expected 3");
}

TEST(PredictionServiceRestore, RejectsLinkCountBeyondRemainingBytes) {
  // The boundary: with no links written, only the 33-byte memo trailer
  // follows the count. It holds two 16-byte link headers (done + basis
  // count), so a count of two passes the bound and fails the first link's
  // check point instead, while a count of three is rejected up front.
  expect_rejected(crafted_state({}, 2), "done=0, expected check point 3");
  expect_rejected(crafted_state({}, 3), "claims 3 chain links but only 33 bytes remain");
}

}  // namespace
}  // namespace mlfs
