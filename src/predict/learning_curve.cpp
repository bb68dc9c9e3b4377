#include "predict/learning_curve.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "predict/nelder_mead.hpp"

namespace mlfs {

namespace curve_detail {

const std::vector<Basis>& bases() {
  static const std::vector<Basis> kBases = {
      {"mmf", {0.9, std::log(8.0)}},
      {"pow3", {0.9, 0.9, std::log(0.7)}},
      {"ilog", {1.0, 1.0}},
  };
  return kBases;
}

CurvePrediction combine_fits(const std::vector<BasisFit>& fits, double residual_scale) {
  // Weight each basis by its goodness of fit (Gaussian kernel on RMSE).
  // The bandwidth adapts to the best fit: a basis that explains the data
  // an order of magnitude worse than the best contributes ~nothing, so a
  // family member that fits exactly dominates the extrapolation.
  double best_rmse_for_scale = fits.front().rmse;
  for (const auto& f : fits) best_rmse_for_scale = std::min(best_rmse_for_scale, f.rmse);
  const double scale = std::max(2.0 * best_rmse_for_scale, 1e-3);
  double weight_sum = 0.0;
  std::vector<double> weights(fits.size());
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const double z = fits[i].rmse / scale;
    weights[i] = std::exp(-0.5 * z * z) + 1e-12;
    weight_sum += weights[i];
  }
  double prediction = 0.0;
  for (std::size_t i = 0; i < fits.size(); ++i) {
    prediction += weights[i] / weight_sum * fits[i].prediction;
  }

  // Confidence: agreement between bases + best-fit quality. Weighted std
  // of per-basis predictions measures extrapolation disagreement.
  double var = 0.0;
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const double d = fits[i].prediction - prediction;
    var += weights[i] / weight_sum * d * d;
  }
  const double spread = std::sqrt(var);
  double best_rmse = fits.front().rmse;
  for (const auto& f : fits) best_rmse = std::min(best_rmse, f.rmse);
  const double confidence =
      std::exp(-spread / residual_scale) * std::exp(-best_rmse / residual_scale);
  return {std::clamp(prediction, 0.0, 1.0), std::clamp(confidence, 0.0, 1.0)};
}

}  // namespace curve_detail

LearningCurvePredictor::LearningCurvePredictor(const LearningCurveConfig& config)
    : config_(config) {
  MLFS_EXPECT(config_.min_observations >= 2);
  MLFS_EXPECT(config_.residual_scale > 0.0);
}

std::vector<std::string> LearningCurvePredictor::basis_names() {
  std::vector<std::string> names;
  for (const auto& b : curve_detail::bases()) names.emplace_back(b.name);
  return names;
}

CurvePrediction LearningCurvePredictor::predict_at(std::span<const double> observed,
                                                   int target_iteration) const {
  MLFS_EXPECT(target_iteration >= 1);
  if (observed.size() < config_.min_observations) {
    return {observed.empty() ? 0.0 : observed.back(), 0.0};
  }

  curve_detail::IlogTable logs;
  logs.grow(observed.size());
  const auto& bs = curve_detail::bases();
  std::vector<curve_detail::BasisFit> fits(bs.size());
  for (std::size_t bi = 0; bi < bs.size(); ++bi) {
    const auto result = curve_detail::visit_basis(bi, [&]<typename B>(std::type_identity<B>) {
      return nelder_mead(
          [&](std::span<const double> p) {
            return curve_detail::fit_residual<B>(p, observed, logs);
          },
          bs[bi].init);
    });
    fits[bi].rmse = std::sqrt(std::max(result.value, 0.0));
    fits[bi].prediction = std::clamp(
        curve_detail::basis_value(bi, result.x, static_cast<double>(target_iteration)), 0.0,
        1.0);
  }
  return curve_detail::combine_fits(fits, config_.residual_scale);
}

}  // namespace mlfs
