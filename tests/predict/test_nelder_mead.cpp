#include "predict/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "common/expect.hpp"

namespace mlfs {
namespace {

TEST(NelderMead, QuadraticBowl) {
  const auto result = nelder_mead(
      [](std::span<const double> x) {
        return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
      },
      std::array{0.0, 0.0});
  EXPECT_NEAR(result.x[0], 3.0, 1e-3);
  EXPECT_NEAR(result.x[1], -2.0, 1e-3);
  EXPECT_LT(result.value, 1e-6);
}

TEST(NelderMead, Rosenbrock2D) {
  NelderMeadOptions options;
  options.max_iterations = 5000;
  const auto result = nelder_mead(
      [](std::span<const double> x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
      },
      std::array{-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 0.05);
  EXPECT_NEAR(result.x[1], 1.0, 0.1);
}

TEST(NelderMead, OneDimensional) {
  const auto result =
      nelder_mead([](std::span<const double> x) { return std::abs(x[0] - 7.0); },
                  std::array{0.0});
  EXPECT_NEAR(result.x[0], 7.0, 1e-2);
}

TEST(NelderMead, HandlesNonFiniteRegions) {
  // Objective is +inf for x < 0; the optimizer must stay in the valid
  // region and find the boundary-adjacent minimum at x = 0.5.
  const auto result = nelder_mead(
      [](std::span<const double> x) {
        if (x[0] < 0.0) return std::numeric_limits<double>::quiet_NaN();
        return (x[0] - 0.5) * (x[0] - 0.5);
      },
      std::array{2.0});
  EXPECT_NEAR(result.x[0], 0.5, 1e-3);
}

TEST(NelderMead, RespectsIterationBudget) {
  NelderMeadOptions options;
  options.max_iterations = 3;
  const auto result = nelder_mead(
      [](std::span<const double> x) { return x[0] * x[0]; }, std::array{100.0}, options);
  EXPECT_LE(result.iterations, 3u);
}

TEST(NelderMead, EmptyInputRejected) {
  EXPECT_THROW(nelder_mead([](std::span<const double>) { return 0.0; }, {}),
               ContractViolation);
}

}  // namespace
}  // namespace mlfs
