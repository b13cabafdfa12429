// Tests for the SweepEngine: every point it returns is bitwise the model's
// own evaluate(λ₀), its saturation search is bitwise the Eq. 26 bisection
// over evaluate(λ₀).inj_service, and parallel runs equal serial ones — on a
// generated grid of GeneralModels: mesh 4×4/8×8, hypercube(4..6) and
// BFT(2..4), each × uniform/hotspot × 1/2 lanes × Poisson/MMPP-2 arrivals.
// Also: the NetworkModel surface the engine drives, and the sensitivity of
// GeneralModel::content_digest (QueryEngine keys its variants on it).
//
// A generated case's test name is its index; replay one with
//   ./test_sweep_engine --gtest_filter='Grid/SweepParity.PointsAreTheModelsOwn/<i>'
#include "harness/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/fattree_model.hpp"
#include "core/saturation.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/rng.hpp"

#include "oracle_builders.hpp"

namespace wormnet::harness {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every field of `got` bitwise equal to `want`.
void expect_bitwise(const core::LatencyEstimate& got,
                    const core::LatencyEstimate& want, const std::string& at) {
  EXPECT_EQ(got.stable, want.stable) << at;
  EXPECT_EQ(got.status, want.status) << at;
  EXPECT_EQ(bits(got.latency), bits(want.latency)) << at;
  EXPECT_EQ(bits(got.inj_wait), bits(want.inj_wait)) << at;
  EXPECT_EQ(bits(got.inj_service), bits(want.inj_service)) << at;
  EXPECT_EQ(bits(got.mean_distance), bits(want.mean_distance)) << at;
  EXPECT_EQ(bits(got.unroutable_fraction), bits(want.unroutable_fraction)) << at;
}

/// The saturation search the engine used to run itself: Eq. 26 bisected
/// over evaluate(λ₀).inj_service, bracketed by 1/s_f.
double oracle_saturation(const core::NetworkModel& model) {
  return core::find_saturation_rate(
      [&](double l) { return model.evaluate(l).inj_service; },
      1.0 / model.worm_flits());
}

void expect_same_points(const std::vector<SweepPoint>& a,
                        const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i].lambda0), bits(b[i].lambda0)) << "i=" << i;
    EXPECT_EQ(bits(a[i].load_flits), bits(b[i].load_flits)) << "i=" << i;
    expect_bitwise(a[i].est, b[i].est, "i=" + std::to_string(i));
  }
}

// ------------------------------------------------------ generated parity

/// One grid cell: index bits pick the topology (i / 8), the pattern, the
/// lane count and the arrival process; the index also seeds the hotspot,
/// the MMPP-2 parameters and the sweep's λ₀ points.
struct Case {
  core::GeneralModel model;
  std::string desc;
};

Case make_case(int index) {
  util::Rng rng(0x5eed0000u + static_cast<std::uint64_t>(index));
  std::unique_ptr<topo::Topology> t;
  switch (index / 8) {
    case 0: t = std::make_unique<topo::Mesh>(4, 2); break;
    case 1: t = std::make_unique<topo::Mesh>(8, 2); break;
    case 2: t = std::make_unique<topo::Hypercube>(4); break;
    case 3: t = std::make_unique<topo::Hypercube>(5); break;
    case 4: t = std::make_unique<topo::Hypercube>(6); break;
    case 5: t = std::make_unique<topo::ButterflyFatTree>(2); break;
    case 6: t = std::make_unique<topo::ButterflyFatTree>(3); break;
    default: t = std::make_unique<topo::ButterflyFatTree>(4); break;
  }
  std::ostringstream d;
  d << "topo " << index / 8;
  traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  if (index & 4) {
    const int node = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(t->num_processors())));
    const double frac = 0.05 + 0.25 * rng.uniform();
    spec = traffic::TrafficSpec::hotspot(frac, node);
    d << " hotspot(" << frac << ", " << node << ")";
  } else {
    d << " uniform";
  }
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  Case c{core::build_traffic_model(*t, spec, opts), ""};
  const int lanes = (index & 2) ? 2 : 1;
  c.model.set_uniform_lanes(lanes);
  d << " lanes " << lanes;
  if (index & 1) {
    const double f = 0.2 + 0.4 * rng.uniform();
    const double sigma = 0.3 * rng.uniform();
    const double k = 2.0 + 8.0 * rng.uniform();
    c.model.set_injection_process(arrivals::ArrivalSpec::mmpp2(f, sigma, k));
    d << " mmpp2(" << f << ", " << sigma << ", " << k << ")";
  } else {
    d << " poisson";
  }
  c.desc = d.str();
  return c;
}

class SweepParity : public ::testing::TestWithParam<int> {};

TEST_P(SweepParity, PointsAreTheModelsOwn) {
  const Case c = make_case(GetParam());
  SCOPED_TRACE(c.desc);
  const core::GeneralModel& model = c.model;
  SweepEngine parallel({/*threads=*/4, /*parallel=*/true});
  SweepEngine serial({/*threads=*/0, /*parallel=*/false});

  // Eq. 26: the model's own search, which the engine's fraction and family
  // sweeps run, is bitwise the old probe-by-probe bisection.
  const double sat = oracle_saturation(model);
  ASSERT_GT(sat, 0.0);
  EXPECT_EQ(bits(model.saturation_rate()), bits(sat));
  EXPECT_EQ(bits(model.saturation_load()), bits(sat * model.worm_flits()));

  // sweep_lambda over seeded points spanning the knee, with repeats.
  util::Rng rng(0x1a3b0000u + static_cast<std::uint64_t>(GetParam()));
  std::vector<double> lambdas{0.0};
  for (int i = 0; i < 9; ++i) lambdas.push_back(sat * 1.2 * rng.uniform());
  lambdas.push_back(lambdas[3]);
  lambdas.push_back(sat);
  const std::vector<SweepPoint> pa = parallel.sweep_lambda(model, lambdas);
  ASSERT_EQ(pa.size(), lambdas.size());
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    EXPECT_EQ(bits(pa[i].lambda0), bits(lambdas[i]));
    EXPECT_EQ(bits(pa[i].load_flits), bits(lambdas[i] * model.worm_flits()));
    expect_bitwise(pa[i].est, model.evaluate(lambdas[i]),
                   "sweep_lambda i=" + std::to_string(i));
  }
  expect_same_points(pa, serial.sweep_lambda(model, lambdas));

  // sweep_saturation_fractions: the fractions of the oracle's λ₀*.
  const std::vector<double> fractions{0.1, 0.5, 0.8, 0.95, 1.05};
  const std::vector<SweepPoint> fa =
      parallel.sweep_saturation_fractions(model, fractions);
  ASSERT_EQ(fa.size(), fractions.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    EXPECT_EQ(bits(fa[i].lambda0), bits(sat * fractions[i]));
    expect_bitwise(fa[i].est, model.evaluate(sat * fractions[i]),
                   "fractions i=" + std::to_string(i));
  }
  expect_same_points(fa, serial.sweep_saturation_fractions(model, fractions));

  // sweep_family: the case's model and a load-scaled copy of it.
  const auto make = [&](double scale) {
    auto m = std::make_unique<core::GeneralModel>(model);
    if (scale != 1.0) m->scale_injection_rates(scale);
    return m;
  };
  const std::vector<double> scales{1.0, 1.5};
  const std::vector<FamilyMember> family =
      parallel.sweep_family(make, scales, fractions);
  const std::vector<FamilyMember> family_serial =
      serial.sweep_family(make, scales, fractions);
  ASSERT_EQ(family.size(), scales.size());
  ASSERT_EQ(family_serial.size(), scales.size());
  for (std::size_t m = 0; m < family.size(); ++m) {
    const FamilyMember& member = family[m];
    EXPECT_EQ(member.parameter, scales[m]);
    const double member_sat = oracle_saturation(*member.model);
    EXPECT_EQ(bits(member.saturation_rate), bits(member_sat));
    EXPECT_EQ(bits(family_serial[m].saturation_rate), bits(member_sat));
    ASSERT_EQ(member.points.size(), fractions.size());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      EXPECT_EQ(bits(member.points[i].lambda0), bits(member_sat * fractions[i]));
      expect_bitwise(member.points[i].est,
                     member.model->evaluate(member_sat * fractions[i]),
                     "family m=" + std::to_string(m) + " i=" + std::to_string(i));
    }
    expect_same_points(member.points, family_serial[m].points);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SweepParity, ::testing::Range(0, 64),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

// ------------------------------------------------------ engine behaviour

std::vector<double> test_lambdas(const core::NetworkModel& model) {
  const double sat = model.saturation_rate();
  std::vector<double> lambdas;
  for (int i = 1; i <= 24; ++i) lambdas.push_back(sat * 1.1 * i / 24);
  return lambdas;  // spans stable region and past saturation
}

TEST(SweepEngine, ParallelSweepBitwiseIdenticalToSerial) {
  // A parallel sweep on >= 4 threads produces BITWISE-identical output to
  // the serial path.
  const core::FatTreeModel model({.levels = 4, .worm_flits = 16.0});
  const std::vector<double> lambdas = test_lambdas(model);

  SweepEngine parallel({/*threads=*/4, /*parallel=*/true});
  SweepEngine serial({/*threads=*/0, /*parallel=*/false});
  EXPECT_EQ(parallel.threads(), 4u);
  EXPECT_EQ(serial.threads(), 1u);
  expect_same_points(parallel.sweep_lambda(model, lambdas),
                     serial.sweep_lambda(model, lambdas));
}

/// Delegates to a closed-form fat-tree and counts evaluate() calls — a
/// NetworkModel needs nothing beyond name, worm length and evaluate().
class CountingModel final : public core::NetworkModel {
 public:
  explicit CountingModel(const core::FatTreeModel& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  double worm_flits() const override { return inner_.worm_flits(); }
  core::LatencyEstimate evaluate(double lambda0) const override {
    ++evaluations;
    return inner_.evaluate(lambda0);
  }
  mutable std::atomic<int> evaluations{0};

 private:
  const core::FatTreeModel& inner_;
};

TEST(SweepEngine, RepeatedLambdasEvaluateOncePerCall) {
  const core::FatTreeModel inner({.levels = 3, .worm_flits = 16.0});
  const CountingModel model(inner);
  SweepEngine engine;
  const auto points =
      engine.sweep_lambda(model, {0.001, 0.002, 0.003, 0.002, 0.001, 0.0, -0.0});
  EXPECT_EQ(model.evaluations.load(), 4);  // -0.0 folds onto 0.0
  EXPECT_EQ(points[1].est.latency, points[3].est.latency);
  EXPECT_EQ(points[0].est.latency, points[4].est.latency);
  EXPECT_EQ(points[5].est.latency, points[6].est.latency);
  EXPECT_EQ(points[2].est.latency, inner.evaluate(0.003).latency);
  EXPECT_EQ(bits(points[6].lambda0), bits(-0.0));  // the caller's λ₀ verbatim
  // Nothing is kept between calls: a repeat evaluates again.
  engine.sweep_lambda(model, {0.001});
  EXPECT_EQ(model.evaluations.load(), 5);
}

TEST(SweepEngine, SweepLoadConvertsUnits) {
  const core::FatTreeModel model({.levels = 3, .worm_flits = 32.0});
  SweepEngine engine;
  const auto points = engine.sweep_load(model, {0.032});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].load_flits, 0.032);
  EXPECT_DOUBLE_EQ(points[0].lambda0, 0.001);
  EXPECT_EQ(points[0].est.latency, model.evaluate(0.032 / 32.0).latency);
}

TEST(SweepEngine, SaturationFractionSweepBracketsTheKnee) {
  const core::FatTreeModel model({.levels = 3, .worm_flits = 16.0});
  SweepEngine engine;
  const auto points =
      engine.sweep_saturation_fractions(model, {0.5, 0.95, 1.05});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[0].est.stable);
  EXPECT_TRUE(points[1].est.stable);
  EXPECT_FALSE(points[2].est.stable);
  EXPECT_GT(points[1].est.latency, points[0].est.latency);
}

TEST(SweepEngine, DrivesModelsThroughTheInterface) {
  // The engine only sees core::NetworkModel; closed-form and graph-backed
  // implementations behave identically behind it.
  const core::FatTreeModel closed({.levels = 3, .worm_flits = 16.0});
  core::GeneralModel graph = oracle::build_fattree_collapsed(3);
  graph.opts.worm_flits = 16.0;
  const core::NetworkModel* models[] = {&closed, &graph};
  SweepEngine engine;
  double latencies[2];
  for (int i = 0; i < 2; ++i)
    latencies[i] = engine.sweep_lambda(*models[i], {0.002})[0].est.latency;
  EXPECT_NEAR(latencies[0], latencies[1], 1e-9 * latencies[0]);
  EXPECT_EQ(graph.name(), "collapsed-fattree(n=3,m=2)");
  EXPECT_EQ(closed.name(), "butterfly-fattree(n=3,m=2)");
  EXPECT_TRUE(closed.options().ablation().multi_server);
}

TEST(SweepEngine, FamilySweepWalksTheHotspotAxis) {
  // The pattern-sweep entry point: a hotspot-fraction axis of traffic-aware
  // fat-tree models.  Saturation must fall monotonically as the fraction
  // grows (the hotspot ejection channel binds harder and harder), each
  // member carries its own curve, and the uniform member (f=0) agrees with
  // the plain uniform builder.
  topo::ButterflyFatTree ft(2);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  SweepEngine engine;
  const std::vector<double> fractions{0.25, 0.5, 0.75};
  const std::vector<FamilyMember> family = engine.sweep_family(
      [&](double f) {
        return std::make_unique<core::GeneralModel>(
            core::build_traffic_model(ft, traffic::TrafficSpec::hotspot(f), opts));
      },
      {0.0, 0.05, 0.15, 0.3}, fractions);
  ASSERT_EQ(family.size(), 4u);
  for (std::size_t i = 0; i < family.size(); ++i) {
    const FamilyMember& member = family[i];
    EXPECT_GT(member.saturation_rate, 0.0);
    ASSERT_EQ(member.points.size(), fractions.size());
    for (std::size_t j = 0; j < fractions.size(); ++j) {
      EXPECT_TRUE(member.points[j].est.stable);
      EXPECT_NEAR(member.points[j].lambda0,
                  member.saturation_rate * fractions[j], 1e-12);
    }
    if (i > 0) {
      EXPECT_LT(member.saturation_rate, family[i - 1].saturation_rate);
    }
  }
  const core::GeneralModel uniform = core::build_traffic_model(
      ft, traffic::TrafficSpec::uniform(), opts);
  EXPECT_NEAR(family[0].saturation_rate, uniform.saturation_rate(), 1e-12);
}

// -------------------------------------- GeneralModel::content_digest keys

TEST(GeneralModelDigest, AblationAndWormLengthChangeIt) {
  core::GeneralModel net = oracle::build_fattree_collapsed(3);
  net.opts.worm_flits = 16.0;
  const std::uint64_t d0 = net.content_digest();
  net.opts.ablation.blocking_correction = false;
  const std::uint64_t d1 = net.content_digest();
  EXPECT_NE(d1, d0);
  net.opts.worm_flits = 32.0;
  EXPECT_NE(net.content_digest(), d1);
  EXPECT_NE(net.content_digest(), d0);
}

TEST(GeneralModelDigest, FiniteBuffersSwitchChangesIt) {
  // The finite_buffers switch changes evaluate() on a tapered fabric, so it
  // must change the content digest too.
  topo::ButterflyFatTree ft(2);
  ft.set_tier_bandwidth(1, 0.5);
  core::GeneralModel on =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  core::GeneralModel off = on;
  off.opts.ablation.finite_buffers = false;
  EXPECT_NE(on.content_digest(), off.content_digest());
  const double lambda0 = on.saturation_rate() * 0.3;
  EXPECT_NE(on.evaluate(lambda0).latency, off.evaluate(lambda0).latency);
}

TEST(GeneralModelDigest, GraphAndArrivalEditsChangeIt) {
  core::GeneralModel net = oracle::build_fattree_collapsed(3);
  const std::uint64_t d0 = net.content_digest();
  net.set_uniform_lanes(4);
  const std::uint64_t d1 = net.content_digest();
  EXPECT_NE(d1, d0);
  net.scale_injection_rates(1.5);
  const std::uint64_t d2 = net.content_digest();
  EXPECT_NE(d2, d1);
  // The arrival tuning: SCV (MMPP-2) and batch residual (compound Poisson).
  net.set_injection_process(arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0));
  const std::uint64_t d3 = net.content_digest();
  EXPECT_NE(d3, d2);
  net.set_injection_process(arrivals::ArrivalSpec::batch(4.0));
  EXPECT_NE(net.content_digest(), d3);
}

TEST(GeneralModelDigest, EqualContentEqualDigest) {
  // Two independently built models with identical content — the second
  // built after the first is gone — share a digest.
  std::uint64_t first = 0;
  {
    const core::GeneralModel net = oracle::build_fattree_collapsed(3);
    first = net.content_digest();
  }
  const core::GeneralModel again = oracle::build_fattree_collapsed(3);
  EXPECT_EQ(again.content_digest(), first);
  const core::GeneralModel copy = again;
  EXPECT_EQ(copy.content_digest(), first);
  EXPECT_NE(oracle::build_fattree_collapsed(4).content_digest(), first);
}

}  // namespace
}  // namespace wormnet::harness
