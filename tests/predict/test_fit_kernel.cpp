// Bitwise equivalence of the fused curve-fit kernel with the generic
// per-point basis evaluation it replaced.
//
// The oracles below are the former implementation, kept here only to
// prove equivalence: each basis as a plain function of (params, x) that
// recomputes every transcendental per point, the residual loop calling it
// through a function pointer, and the std::function / std::sort
// Nelder-Mead. The typed kernels must reproduce them bit for bit —
// compared as std::bit_cast<std::uint64_t> — on random, extreme and
// non-finite params, on prefixes of 3..400 points, and on coarsened index
// lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "predict/learning_curve.hpp"
#include "predict/nelder_mead.hpp"

namespace mlfs {
namespace {

using curve_detail::Ilog;
using curve_detail::IlogTable;
using curve_detail::Mmf;
using curve_detail::Pow3;

// ------------------------------------------------------------- oracles

double oracle_mmf(const std::vector<double>& p, double x) {
  const double a = p[0];
  const double k = std::exp(p[1]);
  return a * x / (x + k);
}

double oracle_pow3(const std::vector<double>& p, double x) {
  const double c = p[0];
  const double a = p[1];
  const double alpha = std::exp(p[2]);
  return c - a * std::pow(x, -alpha);
}

double oracle_ilog(const std::vector<double>& p, double x) {
  const double c = p[0];
  const double a = p[1];
  return c - a / std::log(x + std::numbers::e);
}

using OracleFn = double (*)(const std::vector<double>&, double);
constexpr std::array<OracleFn, 3> kOracles = {oracle_mmf, oracle_pow3, oracle_ilog};

double oracle_residual(OracleFn eval, const std::vector<double>& params,
                       std::span<const double> observed) {
  double sq = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double x = static_cast<double>(i + 1);
    const double err = eval(params, x) - observed[i];
    sq += err * err;
  }
  return sq / static_cast<double>(observed.size());
}

double oracle_coarse_residual(OracleFn eval, const std::vector<double>& params,
                              const std::vector<double>& xs, const std::vector<double>& ys) {
  double sq = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double err = eval(params, xs[i]) - ys[i];
    sq += err * err;
  }
  return sq / static_cast<double>(xs.size());
}

double oracle_safe_eval(const std::function<double(const std::vector<double>&)>& f,
                        const std::vector<double>& x) {
  const double v = f(x);
  return std::isfinite(v) ? v : std::numeric_limits<double>::infinity();
}

NelderMeadResult oracle_nelder_mead(const std::function<double(const std::vector<double>&)>& f,
                                    std::vector<double> x0,
                                    const NelderMeadOptions& options = {}) {
  const std::size_t n = x0.size();
  std::vector<std::vector<double>> simplex;
  simplex.push_back(x0);
  for (std::size_t i = 0; i < n; ++i) {
    auto v = x0;
    const double step = v[i] != 0.0 ? options.initial_step * std::abs(v[i]) : options.initial_step;
    v[i] += step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> values(n + 1);
  for (std::size_t i = 0; i <= n; ++i) values[i] = oracle_safe_eval(f, simplex[i]);

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::vector<std::size_t> order(n + 1);
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&values](std::size_t a, std::size_t b) { return values[a] < values[b]; });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];
    if (std::isfinite(values[worst]) && values[worst] - values[best] < options.tolerance) {
      double diameter_sq = 0.0;
      for (std::size_t i = 0; i <= n; ++i) {
        for (std::size_t d = 0; d < n; ++d) {
          const double delta = simplex[i][d] - simplex[best][d];
          diameter_sq = std::max(diameter_sq, delta * delta);
        }
      }
      if (diameter_sq < std::max(options.tolerance, 1e-14)) break;
    }
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);
    auto combine = [&](double coeff) {
      std::vector<double> out(n);
      for (std::size_t d = 0; d < n; ++d) {
        out[d] = centroid[d] + coeff * (centroid[d] - simplex[worst][d]);
      }
      return out;
    };
    const auto reflected = combine(1.0);
    const double f_reflected = oracle_safe_eval(f, reflected);
    if (f_reflected < values[best]) {
      const auto expanded = combine(2.0);
      const double f_expanded = oracle_safe_eval(f, expanded);
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
    const auto contracted = combine(-0.5);
    const double f_contracted = oracle_safe_eval(f, contracted);
    if (f_contracted < values[worst]) {
      simplex[worst] = contracted;
      values[worst] = f_contracted;
      continue;
    }
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == best) continue;
      for (std::size_t d = 0; d < n; ++d) {
        simplex[i][d] = simplex[best][d] + 0.5 * (simplex[i][d] - simplex[best][d]);
      }
      values[i] = oracle_safe_eval(f, simplex[i]);
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (values[i] < values[best]) best = i;
  }
  return {simplex[best], values[best], iter};
}

// ------------------------------------------------------------- helpers

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Random params for a basis of dimension `dim`: ordinary magnitudes most
/// of the time, otherwise extremes and non-finite values per coordinate.
std::vector<double> random_params(Rng& rng, std::size_t dim) {
  static constexpr std::array<double, 12> kSpecial = {
      0.0,
      -0.0,
      1e-300,
      -1e-300,
      700.0,
      -745.0,
      1e308,
      -1e308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
  };
  std::vector<double> p(dim);
  for (double& v : p) {
    if (rng.bernoulli(0.25)) {
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(kSpecial.size()) - 1);
      v = kSpecial[static_cast<std::size_t>(pick)];
    } else {
      v = rng.uniform(-4.0, 4.0);
    }
  }
  return p;
}

std::vector<double> random_observations(Rng& rng, std::size_t n) {
  std::vector<double> obs(n);
  for (double& v : obs) v = rng.uniform(0.0, 1.0);
  return obs;
}

/// Typed kernel for basis `bi`, as the service picks it.
double fused_residual(std::size_t bi, const std::vector<double>& params,
                      std::span<const double> observed, const IlogTable& logs) {
  return curve_detail::visit_basis(bi, [&]<typename B>(std::type_identity<B>) {
    return curve_detail::fit_residual<B>(params, observed, logs);
  });
}

double fused_coarse_residual(std::size_t bi, const std::vector<double>& params,
                             std::span<const double> observed,
                             std::span<const std::size_t> index, const IlogTable& logs) {
  return curve_detail::visit_basis(bi, [&]<typename B>(std::type_identity<B>) {
    return curve_detail::fit_residual<B>(params, observed, index, logs);
  });
}

// --------------------------------------------------------------- tests

TEST(FitKernel, TypedBasesMatchDescriptorTable) {
  const auto& bs = curve_detail::bases();
  ASSERT_EQ(bs.size(), kOracles.size());
  EXPECT_EQ(bs[0].init.size(), Mmf::kDim);
  EXPECT_EQ(bs[1].init.size(), Pow3::kDim);
  EXPECT_EQ(bs[2].init.size(), Ilog::kDim);
  EXPECT_THROW(curve_detail::basis_value(bs.size(), bs[0].init, 1.0), ContractViolation);
}

TEST(FitKernel, IlogTableIsLogOfXPlusE) {
  IlogTable logs;
  logs.grow(5);
  logs.grow(3);  // never shrinks
  ASSERT_EQ(logs.size(), 5u);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_EQ(bits(logs[i]), bits(std::log(static_cast<double>(i + 1) + std::numbers::e)));
  }
}

TEST(FitKernel, ValueMatchesOracleBitwise) {
  Rng rng(2024);
  const auto& bs = curve_detail::bases();
  for (int trial = 0; trial < 2000; ++trial) {
    for (std::size_t bi = 0; bi < bs.size(); ++bi) {
      const auto params = random_params(rng, bs[bi].init.size());
      for (const double x : {1.0, 2.0, 3.0, 17.0, 400.0, 1e6}) {
        EXPECT_EQ(bits(curve_detail::basis_value(bi, params, x)), bits(kOracles[bi](params, x)))
            << bs[bi].name << " x=" << x;
      }
    }
  }
}

TEST(FitKernel, PrefixResidualMatchesOracleBitwise) {
  Rng rng(77);
  const auto& bs = curve_detail::bases();
  IlogTable logs;
  logs.grow(400);
  for (std::size_t n = 3; n <= 400; ++n) {
    const auto observed = random_observations(rng, n);
    for (std::size_t bi = 0; bi < bs.size(); ++bi) {
      for (int trial = 0; trial < 4; ++trial) {
        const auto params = trial == 0 ? bs[bi].init : random_params(rng, bs[bi].init.size());
        const double fused = fused_residual(bi, params, observed, logs);
        const double oracle = oracle_residual(kOracles[bi], params, observed);
        ASSERT_EQ(bits(fused), bits(oracle)) << bs[bi].name << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(FitKernel, CoarsenedResidualMatchesOracleBitwise) {
  Rng rng(5150);
  const auto& bs = curve_detail::bases();
  IlogTable logs;
  logs.grow(400);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 400));
    const auto observed = random_observations(rng, n);
    // A sorted random subset that, like the service's coarsening, always
    // keeps the first and the last observation.
    std::vector<std::size_t> index;
    std::vector<double> xs, ys;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == 0 || i + 1 == n || rng.bernoulli(0.3)) {
        index.push_back(i);
        xs.push_back(static_cast<double>(i + 1));
        ys.push_back(observed[i]);
      }
    }
    for (std::size_t bi = 0; bi < bs.size(); ++bi) {
      const auto params = random_params(rng, bs[bi].init.size());
      const double fused = fused_coarse_residual(bi, params, observed, index, logs);
      const double oracle = oracle_coarse_residual(kOracles[bi], params, xs, ys);
      ASSERT_EQ(bits(fused), bits(oracle)) << bs[bi].name << " n=" << n;
    }
  }
}

TEST(FitKernel, FullFitsMatchOracleNelderMeadBitwise) {
  // End to end: the templated Nelder-Mead over the fused kernel walks the
  // same simplex as the std::function / std::sort one over the oracle,
  // cold and from a warm start with a smaller step.
  Rng rng(31);
  const auto& bs = curve_detail::bases();
  IlogTable logs;
  logs.grow(200);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 200));
    const double a_max = rng.uniform(0.6, 0.95);
    const double kappa = rng.uniform(2.0, 30.0);
    std::vector<double> observed(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i + 1);
      observed[i] = a_max * x / (x + kappa) + rng.normal(0.0, 0.01);
    }
    for (std::size_t bi = 0; bi < bs.size(); ++bi) {
      NelderMeadOptions warm;
      warm.initial_step = 0.05;
      for (const NelderMeadOptions& options : {NelderMeadOptions{}, warm}) {
        const auto fused = curve_detail::visit_basis(bi, [&]<typename B>(std::type_identity<B>) {
          return nelder_mead(
              [&](std::span<const double> p) {
                return curve_detail::fit_residual<B>(p, observed, logs);
              },
              bs[bi].init, options);
        });
        const auto oracle = oracle_nelder_mead(
            [&](const std::vector<double>& p) {
              return oracle_residual(kOracles[bi], p, observed);
            },
            bs[bi].init, options);
        ASSERT_EQ(fused.iterations, oracle.iterations) << bs[bi].name;
        ASSERT_EQ(bits(fused.value), bits(oracle.value)) << bs[bi].name;
        ASSERT_EQ(fused.x.size(), oracle.x.size());
        for (std::size_t d = 0; d < fused.x.size(); ++d) {
          EXPECT_EQ(bits(fused.x[d]), bits(oracle.x[d])) << bs[bi].name << " d=" << d;
        }
      }
    }
  }
}

TEST(NelderMeadTies, ConstantObjectiveShrinksOntoTheFirstVertex) {
  // Every vertex ties, so the stable order keeps vertex 0 best and vertex
  // n worst: reflection and contraction never improve, and each shrink
  // pulls the simplex onto x0, which must come back exactly.
  for (std::size_t n = 1; n <= kNelderMeadMaxDim; ++n) {
    std::vector<double> x0(n);
    for (std::size_t d = 0; d < n; ++d) x0[d] = 0.5 + static_cast<double>(d);
    const auto result = nelder_mead([](std::span<const double>) { return 1.0; }, x0);
    EXPECT_EQ(result.x, x0) << "n=" << n;
    EXPECT_EQ(result.value, 1.0);
  }
}

TEST(NelderMeadTies, TieOrderMatchesStdSortBitwise) {
  // A staircase objective makes vertex values tie constantly, including
  // +inf ties from a non-finite region. The evaluation sequence must equal
  // the std::sort oracle's point for point.
  const auto staircase = [](std::span<const double> p) {
    if (p[0] < -3.0) return std::numeric_limits<double>::quiet_NaN();
    double s = 0.0;
    for (std::size_t d = 0; d < p.size(); ++d) {
      const double t = p[d] - 0.7 * static_cast<double>(d);
      s += std::floor(4.0 * t * t);
    }
    return s;
  };
  for (std::size_t n = 1; n <= kNelderMeadMaxDim; ++n) {
    std::vector<double> x0(n, 2.0);
    x0[0] = -2.0;
    std::vector<double> fused_trace;
    std::vector<double> oracle_trace;
    const auto fused = nelder_mead(
        [&](std::span<const double> p) {
          fused_trace.insert(fused_trace.end(), p.begin(), p.end());
          return staircase(p);
        },
        x0);
    const auto oracle = oracle_nelder_mead(
        [&](const std::vector<double>& p) {
          oracle_trace.insert(oracle_trace.end(), p.begin(), p.end());
          return staircase(p);
        },
        x0);
    EXPECT_EQ(fused_trace, oracle_trace) << "n=" << n;
    EXPECT_EQ(fused.x, oracle.x) << "n=" << n;
    EXPECT_EQ(fused.iterations, oracle.iterations) << "n=" << n;
  }
}

TEST(NelderMeadTies, DimensionAboveTheFixedSimplexRejected) {
  const std::vector<double> x0(kNelderMeadMaxDim + 1, 0.0);
  EXPECT_THROW(nelder_mead([](std::span<const double>) { return 0.0; }, x0), ContractViolation);
}

}  // namespace
}  // namespace mlfs
