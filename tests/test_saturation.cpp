// Tests for the Eq. 26 saturation solver.
#include "core/saturation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/fattree_model.hpp"
#include "core/network_model.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/mesh.hpp"
#include "util/math.hpp"

#include "oracle_builders.hpp"

namespace wormnet::core {
namespace {

TEST(Saturation, ConstantServiceTime) {
  // x̄(λ) = 20 regardless of load: saturation at λ = 1/20.
  const double rate = find_saturation_rate([](double) { return 20.0; }, 1.0);
  EXPECT_NEAR(rate, 0.05, 1e-9);
}

TEST(Saturation, LinearServiceGrowth) {
  // x̄(λ) = 10 + 100λ: solve λ(10 + 100λ) = 1 -> λ = (−10+√(10²+400))/200.
  const double rate =
      find_saturation_rate([](double l) { return 10.0 + 100.0 * l; }, 1.0);
  const double expected = (-10.0 + std::sqrt(100.0 + 400.0)) / 200.0;
  EXPECT_NEAR(rate, expected, 1e-9);
}

TEST(Saturation, HandlesInfinitePastStability) {
  // Service blows up at λ = 0.04; the solver must converge below it.
  auto service = [](double l) {
    return l < 0.04 ? 10.0 / (1.0 - l / 0.04) : util::kInf;
  };
  const double rate = find_saturation_rate(service, 1.0);
  EXPECT_LT(rate, 0.04);
  EXPECT_GT(rate, 0.0);
  // At the root, λ·x̄ ≈ 1.
  EXPECT_NEAR(rate * service(rate), 1.0, 1e-6);
}

TEST(Saturation, GrowsBracketWhenUpperBoundTooSmall) {
  // Root is at 0.05 but we pass an upper bound of 0.001: bracket growth
  // must find it anyway.
  const double rate = find_saturation_rate([](double) { return 20.0; }, 0.001);
  EXPECT_NEAR(rate, 0.05, 1e-6);
}

/// The solver before its early stop: grow the bracket, then exactly 60
/// bisection steps.  Kept as the oracle the stopping solver must match.
double reference_bisection(const std::function<double(double)>& service_of,
                           double upper_bound) {
  auto g = [&](double lambda) {
    const double x = service_of(lambda);
    if (!std::isfinite(x)) return 1.0;
    return lambda * x - 1.0;
  };
  double lo = 0.0;
  double hi = upper_bound;
  for (int grow = 0; grow < 64 && g(hi) < 0.0; ++grow) hi *= 2.0;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (g(mid) < 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(Saturation, NeverProbesTheSameRateTwice) {
  // Once the bracket collapses to adjacent doubles the midpoint rounds onto
  // an endpoint; the solver must stop there instead of re-probing it, and
  // still return the full 60-step answer bit for bit.
  struct Case {
    std::string tag;
    std::function<double(double)> service;
    double upper_bound;
  };
  const GeneralModel mesh = build_traffic_model(
      topo::Mesh(4, 2), traffic::TrafficSpec::uniform());
  const GeneralModel bft = build_traffic_model(
      topo::ButterflyFatTree(3), traffic::TrafficSpec::uniform());
  const std::vector<Case> cases = {
      {"constant", [](double) { return 20.0; }, 1.0},
      {"linear", [](double l) { return 10.0 + 100.0 * l; }, 1.0},
      {"blow-up",
       [](double l) { return l < 0.04 ? 10.0 / (1.0 - l / 0.04) : util::kInf; },
       1.0},
      {"bracket-growth", [](double) { return 20.0; }, 0.001},
      {"mesh4x4",
       [&](double l) { return mesh.evaluate(l).inj_service; },
       1.0 / mesh.worm_flits()},
      {"bft3",
       [&](double l) { return bft.evaluate(l).inj_service; },
       1.0 / bft.worm_flits()},
  };
  for (const Case& c : cases) {
    std::vector<double> probes;
    const double rate = find_saturation_rate(
        [&](double l) {
          probes.push_back(l);
          return c.service(l);
        },
        c.upper_bound);
    const std::set<double> distinct(probes.begin(), probes.end());
    EXPECT_EQ(distinct.size(), probes.size()) << c.tag;
    EXPECT_EQ(rate, reference_bisection(c.service, c.upper_bound)) << c.tag;
  }
}

TEST(Saturation, FatTreeModelAndGraphAgree) {
  for (int levels : {2, 3, 5}) {
    FatTreeModel closed({.levels = levels, .worm_flits = 16.0});
    const GeneralModel net = oracle::build_fattree_collapsed(levels);
    SolveOptions opts;
    opts.worm_flits = 16.0;
    EXPECT_NEAR(model_saturation_rate(net, opts), closed.saturation_rate(),
                1e-6 * closed.saturation_rate())
        << "levels=" << levels;
  }
}

TEST(Saturation, LargerNetworksSaturateEarlier) {
  // Deeper fat-trees funnel proportionally more traffic through their upper
  // levels relative to a processor's injection capacity.
  double prev = 1.0;
  for (int levels : {1, 2, 3, 4, 5}) {
    FatTreeModel m({.levels = levels, .worm_flits = 16.0});
    const double sat = m.saturation_load();
    EXPECT_LT(sat, prev) << "levels=" << levels;
    prev = sat;
  }
}

TEST(Saturation, AblationsShiftSaturationTheRightWay) {
  FatTreeModelOptions base{.levels = 5, .worm_flits = 16.0};
  const double sat_full = FatTreeModel(base).saturation_load();

  FatTreeModelOptions no_ms = base;
  no_ms.multi_server = false;
  // Ignoring the pooled two-server bundles makes queues look worse:
  // saturation moves DOWN.
  EXPECT_LT(FatTreeModel(no_ms).saturation_load(), sat_full);

  FatTreeModelOptions no_block = base;
  no_block.blocking_correction = false;
  // Charging full waits (P = 1) also predicts earlier saturation.
  EXPECT_LT(FatTreeModel(no_block).saturation_load(), sat_full);

  FatTreeModelOptions typo = base;
  typo.erratum_2lambda = false;
  // The typo'd M/G/2 under-counts arrivals: optimistically late saturation.
  EXPECT_GT(FatTreeModel(typo).saturation_load(), sat_full);
}

}  // namespace
}  // namespace wormnet::core
