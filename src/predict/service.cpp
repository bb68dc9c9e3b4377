#include "predict/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/expect.hpp"
#include "predict/nelder_mead.hpp"

namespace mlfs {

void PredictConfig::validate() const {
  if (coarsen_head < 3) {
    throw ContractViolation("PredictConfig: coarsen_head must be >= 3");
  }
  if (coarsen_per_octave < 1) {
    throw ContractViolation("PredictConfig: coarsen_per_octave must be >= 1");
  }
}

PredictionService::PredictionService(const PredictConfig& config, int check_interval,
                                     const LearningCurveConfig& curve_config)
    : config_(config), check_interval_(check_interval), curve_config_(curve_config) {
  config_.validate();
  MLFS_EXPECT(check_interval_ >= 1);
}

int PredictionService::first_link() const {
  // Smallest multiple of the check interval that passes the engine's
  // OptStop gate (done >= 3) and carries enough points to fit.
  const int least = std::max(3, static_cast<int>(curve_config_.min_observations));
  return ((least + check_interval_ - 1) / check_interval_) * check_interval_;
}

int PredictionService::quantize(int done) const {
  const int k = (done / check_interval_) * check_interval_;
  return k >= first_link() ? k : 0;
}

namespace {

// Chain policy constants (see service.hpp's file comment).
//
// Warm-start step: the initial simplex step for link j seeded from the
// previous link's params is clamp(kWarmStepScale × drift_{j-1},
// kWarmStepFloor, 0.25); the first warm link (no drift yet) uses the cold
// default step 0.25.
constexpr double kWarmStepScale = 4.0;
constexpr double kWarmStepFloor = 0.02;
// Cold restart: a warm fit whose objective regresses past
// kRegressionFactor × previous value (+ epsilon) also runs the cold fit and
// takes the better result, spending one of PredictionService::kRestartBudget.
constexpr double kRegressionFactor = 1.5;
constexpr double kRegressionEpsilon = 1e-10;
// Settled-fit carry-forward: a probe residual within kSettleFactor ×
// previous value (+ epsilon) means the previous params still explain the
// grown prefix. The epsilon floor lets numerically exact fits (residual
// ~ 0) settle despite large relative wobble.
constexpr double kSettleFactor = 1.5;
constexpr double kSettleEpsilon = 1e-12;
// Basis freezing: a non-best basis below kFreezeWeightThreshold of the
// combination weight for kFreezeStreak consecutive links, from link
// kFreezeMinLinks on, is never refit again.
constexpr double kFreezeWeightThreshold = 0.005;
constexpr int kFreezeStreak = 2;
constexpr int kFreezeMinLinks = 3;

/// Coarsened tail bin of 0-based observation index i (valid for
/// i >= head): log-spaced, ~per_octave bins per doubling.
int coarse_bin(int i, int head, int per_octave) {
  return static_cast<int>(std::floor(
      static_cast<double>(per_octave) *
      std::log2(static_cast<double>(i + 1) / static_cast<double>(head))));
}

/// Logarithmic tail subsample of an n-point prefix, as 0-based indices:
/// the first `head` observations exactly, the last observation always, and
/// otherwise the last index of each log bin.
void build_coarse_index(std::size_t count, int head, int per_octave,
                        std::vector<std::size_t>& index) {
  const int n = static_cast<int>(count);
  index.clear();
  for (int i = 0; i < n; ++i) {
    const bool keep = i < head || i == n - 1 ||
                      coarse_bin(i, head, per_octave) != coarse_bin(i + 1, head, per_octave);
    if (keep) index.push_back(static_cast<std::size_t>(i));
  }
}

/// One basis' fit at a new chain link, under the policy in service.hpp's
/// file comment: a cold fit, a settled carry-forward, a warm fit, or a warm
/// fit plus a cold restart. `objective` is the basis' residual kernel over
/// the link's observations.
template <typename Objective>
void fit_basis(PredictStats& stats, Objective&& objective,
               std::span<const double> init, const PredictionService::BasisFitRec* pb,
               PredictionService::BasisFitRec& out) {
  NelderMeadResult res;
  if (pb == nullptr) {
    res = nelder_mead(objective, init);
    ++stats.fits_cold;
    out.restarts = 0;
  } else if (pb->restarts >= PredictionService::kRestartBudget) {
    // Budget spent: this basis regresses chronically under warm starts;
    // one cold fit per link beats warm-then-cold double fits.
    res = nelder_mead(objective, init);
    ++stats.fits_cold;
    out.restarts = pb->restarts;
  } else {
    // Settled-fit probe: if the previous params still explain the grown
    // prefix, carry them forward for one objective evaluation.
    const double probe = objective(std::span<const double>(pb->params));
    if (probe <= kSettleFactor * pb->value + kSettleEpsilon) {
      out.params = pb->params;
      out.value = probe;
      out.rmse = std::sqrt(std::max(probe, 0.0));
      out.drift = 0.0;
      out.restarts = pb->restarts;
      out.low_streak = pb->low_streak;
      return;
    }
    NelderMeadOptions opts;
    opts.initial_step =
        pb->drift < 0.0
            ? 0.25
            : std::clamp(kWarmStepScale * pb->drift, kWarmStepFloor, 0.25);
    res = nelder_mead(objective, pb->params, opts);
    ++stats.fits_warm;
    out.restarts = pb->restarts;
    if (res.value > kRegressionFactor * pb->value + kRegressionEpsilon) {
      NelderMeadResult cold = nelder_mead(objective, init);
      ++stats.fits_cold;
      ++out.restarts;
      if (cold.value < res.value) res = std::move(cold);
    }
  }
  out.params = std::move(res.x);
  out.value = res.value;
  out.rmse = std::sqrt(std::max(res.value, 0.0));
  if (pb != nullptr) {
    double drift = 0.0;
    for (std::size_t d = 0; d < out.params.size(); ++d) {
      drift = std::max(drift, std::abs(out.params[d] - pb->params[d]));
    }
    out.drift = drift;
  }
  out.low_streak = pb != nullptr ? pb->low_streak : 0;
}

[[noreturn]] void reject_state(const std::string& detail) {
  throw ContractViolation("predict state: " + detail);
}

/// Smallest encoded chain link: its done and its basis count, which
/// restore_state checks before it reads any basis.
constexpr std::uint64_t kMinLinkBytes = 8 + 8;

}  // namespace

void PredictionService::fit_link(JobState& st, std::span<const double> observed, int done) {
  MLFS_EXPECT(static_cast<int>(observed.size()) >= done);
  const std::span<const double> obs = observed.first(static_cast<std::size_t>(done));
  const bool coarse = config_.coarsen && done > config_.coarsen_head;
  std::vector<std::size_t> index;
  if (coarse) {
    build_coarse_index(obs.size(), config_.coarsen_head, config_.coarsen_per_octave, index);
  }
  ilog_table_.grow(obs.size());

  const auto& bs = curve_detail::bases();
  LinkRecord rec;
  rec.done = done;
  rec.basis.resize(bs.size());
  const LinkRecord* prev = st.links.empty() ? nullptr : &st.links.back();

  for (std::size_t bi = 0; bi < bs.size(); ++bi) {
    BasisFitRec& out = rec.basis[bi];
    const BasisFitRec* pb = prev ? &prev->basis[bi] : nullptr;
    if (pb != nullptr && pb->frozen) {
      out = *pb;  // frozen: params/rmse carried forward, never refit
      continue;
    }
    // The residual kernel is chosen once per basis fit, not per point.
    curve_detail::visit_basis(bi, [&]<typename B>(std::type_identity<B>) {
      const auto objective = [&](std::span<const double> p) {
        ++stats_.nm_objective_evals;
        return coarse ? curve_detail::fit_residual<B>(p, obs, index, ilog_table_)
                      : curve_detail::fit_residual<B>(p, obs, ilog_table_);
      };
      fit_basis(stats_, objective, bs[bi].init, pb, out);
    });
  }

  // Freeze bookkeeping: recompute the combination weights (same kernel as
  // curve_detail::combine_fits) and advance each unfrozen non-best basis'
  // low-weight streak.
  std::size_t best = 0;
  for (std::size_t bi = 1; bi < rec.basis.size(); ++bi) {
    if (rec.basis[bi].rmse < rec.basis[best].rmse) best = bi;
  }
  const double scale = std::max(2.0 * rec.basis[best].rmse, 1e-3);
  double weight_sum = 0.0;
  std::vector<double> weights(rec.basis.size());
  for (std::size_t bi = 0; bi < rec.basis.size(); ++bi) {
    const double z = rec.basis[bi].rmse / scale;
    weights[bi] = std::exp(-0.5 * z * z) + 1e-12;
    weight_sum += weights[bi];
  }
  const int link_index = static_cast<int>(st.links.size()) + 1;
  for (std::size_t bi = 0; bi < rec.basis.size(); ++bi) {
    BasisFitRec& b = rec.basis[bi];
    if (b.frozen) continue;
    if (bi != best && weights[bi] / weight_sum < kFreezeWeightThreshold) {
      ++b.low_streak;
    } else {
      b.low_streak = 0;
    }
    if (link_index >= kFreezeMinLinks && b.low_streak >= kFreezeStreak) {
      b.frozen = true;
    }
  }

  st.links.push_back(std::move(rec));
}

const PredictionService::LinkRecord* PredictionService::advance_links(JobState& st,
                                                                      const Job& job,
                                                                      int link_done) {
  if (!st.links.empty() && st.links.back().done >= link_done) {
    // Rollback re-entry (or an out-of-band query behind the chain tip):
    // the canonical link was already computed — pure-function reuse.
    const auto it = std::lower_bound(
        st.links.begin(), st.links.end(), link_done,
        [](const LinkRecord& r, int d) { return r.done < d; });
    MLFS_EXPECT(it != st.links.end() && it->done == link_done);
    ++stats_.cache_hits;
    return &*it;
  }
  // New links must be fitted: read the observation prefix off the curve.
  // It is released afterwards rather than kept as a member, which would
  // hold the longest prefix ever fitted for the rest of the run.
  std::vector<double> observed(static_cast<std::size_t>(link_done));
  for (int i = 0; i < link_done; ++i) observed[i] = job.curve().accuracy_at(i + 1);
  int next = st.links.empty() ? first_link() : st.links.back().done + check_interval_;
  for (; next <= link_done; next += check_interval_) fit_link(st, observed, next);
  return &st.links.back();
}

CurvePrediction PredictionService::prediction_from(const LinkRecord& rec, int target) const {
  std::vector<curve_detail::BasisFit> fits(rec.basis.size());
  for (std::size_t bi = 0; bi < rec.basis.size(); ++bi) {
    fits[bi].rmse = rec.basis[bi].rmse;
    fits[bi].prediction = std::clamp(
        curve_detail::basis_value(bi, rec.basis[bi].params, static_cast<double>(target)), 0.0,
        1.0);
  }
  return curve_detail::combine_fits(fits, curve_config_.residual_scale);
}

CurvePrediction PredictionService::predict_at_max(const Job& job) {
  const int done = job.completed_iterations();
  const int target = job.spec().max_iterations;
  const int link = quantize(done);
  if (link == 0) {
    // Below the first canonical link: mirror predict_at's fallback.
    return {done <= 0 ? 0.0 : job.curve().accuracy_at(done), 0.0};
  }

  JobState& st = states_[job.id()];
  if (st.memo_valid && st.memo_done == link && st.memo_target == target) {
    ++stats_.cache_hits;
    return st.memo;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const LinkRecord* rec = advance_links(st, job, link);
  const CurvePrediction out = prediction_from(*rec, target);
  st.memo_valid = true;
  st.memo_done = link;
  st.memo_target = target;
  st.memo = out;
  stats_.fit_wall_ms +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

void PredictionService::on_job_complete(const Job& job) {
  runtime_.record_completion(job);
  states_.erase(job.id());
}

void PredictionService::on_job_failed(const Job& job) { states_.erase(job.id()); }

void PredictionService::save_state(io::BinWriter& w) const {
  w.u64(stats_.fits_cold);
  w.u64(stats_.fits_warm);
  w.u64(stats_.cache_hits);
  w.u64(stats_.nm_objective_evals);
  w.f64(stats_.fit_wall_ms);
  w.u64(states_.size());
  for (const auto& [id, st] : states_) {  // std::map: sorted, canonical bytes
    w.u64(id);
    w.u64(st.links.size());
    for (const LinkRecord& rec : st.links) {
      w.i64(rec.done);
      w.u64(rec.basis.size());
      for (const BasisFitRec& b : rec.basis) {
        w.vec_f64(b.params);
        w.f64(b.rmse);
        w.f64(b.value);
        w.f64(b.drift);
        w.boolean(b.frozen);
        w.i64(b.low_streak);
        w.i64(b.restarts);
      }
    }
    w.boolean(st.memo_valid);
    w.i64(st.memo_done);
    w.i64(st.memo_target);
    w.f64(st.memo.accuracy);
    w.f64(st.memo.confidence);
  }
}

void PredictionService::restore_state(io::BinReader& r) {
  stats_.fits_cold = static_cast<std::size_t>(r.u64());
  stats_.fits_warm = static_cast<std::size_t>(r.u64());
  stats_.cache_hits = static_cast<std::size_t>(r.u64());
  stats_.nm_objective_evals = static_cast<std::size_t>(r.u64());
  stats_.fit_wall_ms = r.f64();
  states_.clear();
  const auto& bs = curve_detail::bases();
  const std::uint64_t jobs = r.u64();
  for (std::uint64_t j = 0; j < jobs; ++j) {
    const JobId id = static_cast<JobId>(r.u64());
    JobState st;
    // Every link takes at least kMinLinkBytes of the section, so a count
    // the remaining bytes cannot hold is rejected before anything is
    // reserved for it.
    const std::uint64_t links = r.u64();
    const std::uint64_t remaining = r.remaining();
    if (links > remaining / kMinLinkBytes) {
      reject_state("job " + std::to_string(id) + " claims " + std::to_string(links) +
                   " chain links but only " + std::to_string(remaining) + " bytes remain");
    }
    st.links.reserve(static_cast<std::size_t>(links));
    std::int64_t expected_done = first_link();
    for (std::uint64_t l = 0; l < links; ++l) {
      LinkRecord rec;
      const std::int64_t done = r.i64();
      if (done != expected_done) {
        reject_state("job " + std::to_string(id) + " link " + std::to_string(l) + " at done=" +
                     std::to_string(done) + ", expected check point " +
                     std::to_string(expected_done));
      }
      rec.done = static_cast<int>(done);
      expected_done += check_interval_;
      const std::uint64_t nb = r.u64();
      if (nb != bs.size()) {
        reject_state("job " + std::to_string(id) + " link " + std::to_string(l) + " has " +
                     std::to_string(nb) + " bases, expected " + std::to_string(bs.size()));
      }
      rec.basis.resize(bs.size());
      for (std::size_t bi = 0; bi < bs.size(); ++bi) {
        BasisFitRec& b = rec.basis[bi];
        b.params = r.vec_f64();
        if (b.params.size() != bs[bi].init.size()) {
          reject_state("job " + std::to_string(id) + " link " + std::to_string(l) + " basis " +
                       bs[bi].name + " has " + std::to_string(b.params.size()) +
                       " params, expected " + std::to_string(bs[bi].init.size()));
        }
        b.rmse = r.f64();
        b.value = r.f64();
        b.drift = r.f64();
        b.frozen = r.boolean();
        b.low_streak = static_cast<int>(r.i64());
        b.restarts = static_cast<int>(r.i64());
      }
      st.links.push_back(std::move(rec));
    }
    st.memo_valid = r.boolean();
    st.memo_done = static_cast<int>(r.i64());
    st.memo_target = static_cast<int>(r.i64());
    st.memo.accuracy = r.f64();
    st.memo.confidence = r.f64();
    states_.emplace(id, std::move(st));
  }
}

}  // namespace mlfs
