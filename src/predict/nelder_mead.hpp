// Compact Nelder-Mead simplex minimizer for the low-dimensional curve fits
// in the learning-curve predictor (2-4 parameters, smooth objectives).
// Derivative-free, so basis curves don't need hand-written gradients.
//
// A template over the objective, so the curve-fit residual inlines into
// the simplex loop. The simplex, its values, the vertex order and every
// trial point live in fixed-size arrays: a run allocates nothing but the
// result vector.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/expect.hpp"

namespace mlfs {

struct NelderMeadOptions {
  std::size_t max_iterations = 600;
  double tolerance = 1e-9;      ///< stop when simplex f-spread falls below this
  double initial_step = 0.25;   ///< relative perturbation building the simplex
};

struct NelderMeadResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t iterations = 0;
};

/// Largest problem dimension nelder_mead accepts.
inline constexpr std::size_t kNelderMeadMaxDim = 4;

/// Minimizes f starting from x0 (1 <= x0.size() <= kNelderMeadMaxDim).
/// f is called as f(std::span<const double>) -> double and must be finite
/// at x0; non-finite values elsewhere are treated as +inf (lets objectives
/// reject invalid params).
template <typename F>
NelderMeadResult nelder_mead(F&& f, std::span<const double> x0,
                             const NelderMeadOptions& options = {}) {
  using Point = std::array<double, kNelderMeadMaxDim>;
  const std::size_t n = x0.size();
  MLFS_EXPECT(n >= 1 && n <= kNelderMeadMaxDim);
  const auto eval = [&f, n](const Point& x) {
    const double v = f(std::span<const double>(x.data(), n));
    return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
  };

  // Build initial simplex: x0 plus one perturbed vertex per dimension.
  std::array<Point, kNelderMeadMaxDim + 1> simplex{};
  std::copy(x0.begin(), x0.end(), simplex[0].begin());
  for (std::size_t i = 0; i < n; ++i) {
    Point& v = simplex[i + 1];
    v = simplex[0];
    const double step = v[i] != 0.0 ? options.initial_step * std::abs(v[i]) : options.initial_step;
    v[i] += step;
  }
  std::array<double, kNelderMeadMaxDim + 1> values{};
  for (std::size_t i = 0; i <= n; ++i) values[i] = eval(simplex[i]);

  constexpr double kAlpha = 1.0;  // reflection
  constexpr double kGamma = 2.0;  // expansion
  constexpr double kRho = 0.5;    // contraction
  constexpr double kSigma = 0.5;  // shrink

  std::array<std::size_t, kNelderMeadMaxDim + 1> order{};
  Point centroid{};
  Point reflected{};
  Point expanded{};
  Point contracted{};
  const auto combine = [&centroid, &simplex, n](std::size_t worst, double coeff, Point& out) {
    for (std::size_t d = 0; d < n; ++d) {
      out[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
    }
  };

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Order vertices by objective value, ties by index: a stable insertion
    // sort. Values are never NaN (eval maps them to +inf), so this is the
    // order std::sort gives on five or fewer elements.
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    for (std::size_t i = 1; i <= n; ++i) {
      const std::size_t v = order[i];
      std::size_t j = i;
      for (; j > 0 && values[v] < values[order[j - 1]]; --j) order[j] = order[j - 1];
      order[j] = v;
    }
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    if (std::isfinite(values[worst]) &&
        values[worst] - values[best] < options.tolerance) {
      // f-spread alone is not enough: a simplex straddling a minimum
      // symmetrically has equal values while still being wide. Require
      // the simplex itself to have collapsed too.
      double diameter_sq = 0.0;
      for (std::size_t i = 0; i <= n; ++i) {
        for (std::size_t d = 0; d < n; ++d) {
          const double delta = simplex[i][d] - simplex[best][d];
          diameter_sq = std::max(diameter_sq, delta * delta);
        }
      }
      if (diameter_sq < std::max(options.tolerance, 1e-14)) break;
    }

    // Centroid of all but the worst vertex.
    centroid.fill(0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (std::size_t d = 0; d < n; ++d) centroid[d] /= static_cast<double>(n);

    combine(worst, kAlpha, reflected);
    const double f_reflected = eval(reflected);
    if (f_reflected < values[best]) {
      combine(worst, kAlpha * kGamma, expanded);
      const double f_expanded = eval(expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = expanded;
        values[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        values[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < values[second_worst]) {
      simplex[worst] = reflected;
      values[worst] = f_reflected;
      continue;
    }
    combine(worst, -kRho, contracted);
    const double f_contracted = eval(contracted);
    if (f_contracted < values[worst]) {
      simplex[worst] = contracted;
      values[worst] = f_contracted;
      continue;
    }
    // Shrink toward the best vertex.
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t d = 0; d < n; ++d) {
        simplex[i][d] = simplex[best][d] + kSigma * (simplex[i][d] - simplex[best][d]);
      }
      values[i] = eval(simplex[i]);
    }
  }

  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (values[i] < values[best]) best = i;
  }
  return {std::vector<double>(simplex[best].begin(), simplex[best].begin() + n), values[best],
          iter};
}

}  // namespace mlfs
