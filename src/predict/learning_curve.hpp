// Weighted probabilistic learning-curve extrapolation in the style of
// Domhan et al. [17] — the accuracy-prediction substrate MLFS assumes
// (§3.1: "the accuracy of a job can be predicted ... around 90% accuracy";
// §3.5: OptStop uses the prediction + its confidence).
//
// Mechanism: fit several parametric basis curves to the observed
// (iteration, accuracy) points by least squares (Nelder-Mead), weight each
// basis by how well it explains the observations, and report the weighted
// prediction plus a confidence derived from inter-basis agreement and fit
// residuals.
#pragma once

#include <cmath>
#include <numbers>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"

namespace mlfs {

struct CurvePrediction {
  double accuracy = 0.0;    ///< predicted accuracy at the target iteration
  double confidence = 0.0;  ///< in [0, 1]; higher = tighter basis agreement
};

/// The predictor's parametric substrate, exposed so the incremental
/// PredictionService (predict/service.hpp) can fit the identical basis
/// family link-by-link instead of from scratch. predict_at below remains
/// the one-shot reference implementation over the same pieces.
namespace curve_detail {

// The basis family. Params are unconstrained reals; each basis transforms
// them internally so Nelder-Mead can roam. A basis is built once per
// objective evaluation, which hoists every parameter-only transcendental
// out of the point loop, and maps x to accuracy through value(x).

/// MMF/hyperbolic saturation: a * x / (x + k). Matches the simulator's
/// ground-truth family (recoverable exactly), k > 0 via exp transform.
class Mmf {
 public:
  static constexpr std::size_t kDim = 2;
  explicit Mmf(std::span<const double> p) : a_(p[0]), k_(std::exp(p[1])) {}
  double value(double x) const { return a_ * x / (x + k_); }

 private:
  double a_, k_;
};

/// pow3: c - a * x^(-alpha), alpha > 0 via exp transform.
class Pow3 {
 public:
  static constexpr std::size_t kDim = 3;
  explicit Pow3(std::span<const double> p) : c_(p[0]), a_(p[1]), neg_alpha_(-std::exp(p[2])) {}
  double value(double x) const {
    // pow(1, y) is exactly 1 for every y, NaN included (C Annex F), so the
    // first point of every prefix skips the call without changing a bit.
    return c_ - a_ * (x == 1.0 ? 1.0 : std::pow(x, neg_alpha_));
  }

 private:
  double c_, a_, neg_alpha_;
};

/// ilog: c - a / ln(x + e).
class Ilog {
 public:
  static constexpr std::size_t kDim = 2;
  explicit Ilog(std::span<const double> p) : c_(p[0]), a_(p[1]) {}
  double value(double x) const { return from_log(std::log(x + std::numbers::e)); }
  /// value(x) given ln(x + e), e.g. from an IlogTable.
  double from_log(double log_xe) const { return c_ - a_ / log_xe; }

 private:
  double c_, a_;
};

/// Descriptor of one basis, in combination order (mmf / pow3 / ilog).
struct Basis {
  const char* name;
  std::vector<double> init;  ///< cold-start simplex seed; size() is the dimension
};

/// The fixed basis family.
const std::vector<Basis>& bases();

/// Calls f(std::type_identity<B>{}) with the typed basis at `index` of
/// bases(), so a caller picks its residual kernel once per fit.
template <typename F>
decltype(auto) visit_basis(std::size_t index, F&& f) {
  switch (index) {
    case 0: return f(std::type_identity<Mmf>{});
    case 1: return f(std::type_identity<Pow3>{});
    case 2: return f(std::type_identity<Ilog>{});
  }
  throw ContractViolation("basis index " + std::to_string(index) + " out of range");
}

/// ln(x + e) at x = i + 1: ilog's per-point denominator as an x-indexed
/// table. Entry i is a pure function of i, so the table only ever grows.
class IlogTable {
 public:
  /// Extends the table to cover x = 1..n.
  void grow(std::size_t n) {
    for (std::size_t i = log_.size(); i < n; ++i) {
      log_.push_back(std::log(static_cast<double>(i + 1) + std::numbers::e));
    }
  }
  std::size_t size() const { return log_.size(); }
  double operator[](std::size_t i) const { return log_[i]; }

 private:
  std::vector<double> log_;
};

/// Basis value at prefix point i (x = i + 1); ilog reads its denominator
/// from `logs`, which must cover i.
template <typename B>
double point_value(const B& basis, std::size_t i, const IlogTable& logs) {
  if constexpr (std::is_same_v<B, Ilog>) {
    return basis.from_log(logs[i]);
  } else {
    return basis.value(static_cast<double>(i + 1));
  }
}

/// Mean squared error of `params` against `observed`, where observed[i] is
/// the value at x = i + 1. `logs` must cover observed.size() points.
template <typename B>
double fit_residual(std::span<const double> params, std::span<const double> observed,
                    const IlogTable& logs) {
  const B basis(params);
  double sq = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double err = point_value(basis, i, logs) - observed[i];
    sq += err * err;
  }
  return sq / static_cast<double>(observed.size());
}

/// Mean squared error over the prefix points listed in `index` (a
/// coarsened observation set; 0-based, x = i + 1).
template <typename B>
double fit_residual(std::span<const double> params, std::span<const double> observed,
                    std::span<const std::size_t> index, const IlogTable& logs) {
  const B basis(params);
  double sq = 0.0;
  for (const std::size_t i : index) {
    const double err = point_value(basis, i, logs) - observed[i];
    sq += err * err;
  }
  return sq / static_cast<double>(index.size());
}

/// Basis value at x for the params of one fitted basis.
inline double basis_value(std::size_t index, std::span<const double> params, double x) {
  return visit_basis(index, [&]<typename B>(std::type_identity<B>) { return B(params).value(x); });
}

/// One fitted basis, reduced to what the weighting step consumes.
struct BasisFit {
  double rmse = 0.0;        ///< sqrt(max(objective value, 0))
  double prediction = 0.0;  ///< basis value at the target, clamped to [0, 1]
};

/// The residual-weighted combination + confidence step shared by
/// LearningCurvePredictor::predict_at and the PredictionService. Bitwise
/// identical to the historical inline computation.
CurvePrediction combine_fits(const std::vector<BasisFit>& fits, double residual_scale);

}  // namespace curve_detail

struct LearningCurveConfig {
  std::size_t min_observations = 3;  ///< below this, predict_at falls back
  double residual_scale = 0.02;      ///< basis-weighting bandwidth (accuracy units)
};

class LearningCurvePredictor {
 public:
  explicit LearningCurvePredictor(const LearningCurveConfig& config = {});

  /// `observed[i]` = accuracy after iteration i+1. Predicts the accuracy
  /// at `target_iteration` (1-based, may be <= observed.size() for
  /// interpolation checks). With fewer than min_observations points, the
  /// prediction is the last observation with zero confidence.
  CurvePrediction predict_at(std::span<const double> observed, int target_iteration) const;

  /// Names of the basis curves (diagnostics/tests).
  static std::vector<std::string> basis_names();

 private:
  LearningCurveConfig config_;
};

}  // namespace mlfs
