// Parity of the compiled solve (core::SolvePlan) against the per-class
// reference solver in tests/oracle_solver.hpp, on generated inputs.
//
// Contract under test: compiling the graph changes no bit.  Every
// SolveResult field, the reverse-topological order and the Eq. 26
// saturation rate (whose ~55 probes share one plan and scratch arrays)
// equal the reference's exactly, across topologies × lanes × buffer depth ×
// bandwidth × arrival process, every ablation mask, and a cyclic graph that
// takes the damped fixed-point path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/general_model.hpp"
#include "core/traffic_model.hpp"
#include "oracle_solver.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/math.hpp"

namespace wormnet {
namespace {

using core::GeneralModel;
using core::SolveOptions;
using core::SolveResult;

/// Bitwise double equality (NaN payloads and signed zeros included).
void expect_same_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << ": got " << got << ", want " << want;
}

void expect_same_result(const SolveResult& got, const SolveResult& want,
                        const std::string& tag) {
  EXPECT_EQ(got.stable, want.stable) << tag;
  EXPECT_EQ(got.converged, want.converged) << tag;
  EXPECT_EQ(got.iterations, want.iterations) << tag;
  expect_same_bits(got.telemetry.max_residual, want.telemetry.max_residual,
                   tag + " max_residual");
  expect_same_bits(got.telemetry.max_utilization, want.telemetry.max_utilization,
                   tag + " max_utilization");
  EXPECT_EQ(got.telemetry.max_utilization_class,
            want.telemetry.max_utilization_class) << tag;
  EXPECT_EQ(got.telemetry.first_saturated_class,
            want.telemetry.first_saturated_class) << tag;
  EXPECT_EQ(std::string(got.telemetry.saturation_cause),
            std::string(want.telemetry.saturation_cause)) << tag;
  ASSERT_EQ(got.channels.size(), want.channels.size()) << tag;
  for (std::size_t id = 0; id < got.channels.size(); ++id) {
    const core::ChannelSolution& a = got.channels[id];
    const core::ChannelSolution& b = want.channels[id];
    const std::string ch = tag + " class " + std::to_string(id);
    expect_same_bits(a.service_time, b.service_time, ch + " service_time");
    expect_same_bits(a.wait, b.wait, ch + " wait");
    expect_same_bits(a.utilization, b.utilization, ch + " utilization");
    expect_same_bits(a.cb2, b.cb2, ch + " cb2");
    expect_same_bits(a.ca2, b.ca2, ch + " ca2");
    expect_same_bits(a.blocking, b.blocking, ch + " blocking");
  }
}

/// Saturation rate and full solves below, near and past it, all against
/// the reference.
void expect_model_parity(const GeneralModel& m, const std::string& tag) {
  const double sat = oracle::saturation_rate(m, m.opts);
  expect_same_bits(m.saturation_rate(), sat, tag + " saturation_rate");
  for (double frac : {0.0, 0.5, 0.95, 1.2}) {
    SolveOptions run = m.opts;
    run.injection_scale = frac * sat;
    const std::string at = tag + " @" + std::to_string(frac) + "sat";
    expect_same_result(m.solve(run.injection_scale),
                       oracle::solve_channel_graph(m.graph, run), at);
    expect_same_bits(m.evaluate(run.injection_scale).inj_service,
                     oracle::injection_service(m, run.injection_scale, m.opts),
                     at + " inj_service");
  }
}

struct TopoCase {
  const char* tag;
  std::unique_ptr<topo::Topology> topo;
  core::CollapseMode collapse;
};

TopoCase make_topology(int index) {
  switch (index) {
    case 0: return {"mesh4x4", std::make_unique<topo::Mesh>(4, 2), core::CollapseMode::Dense};
    case 1: return {"mesh8x8", std::make_unique<topo::Mesh>(8, 2), core::CollapseMode::Dense};
    case 2: return {"bft3_dense", std::make_unique<topo::ButterflyFatTree>(3), core::CollapseMode::Dense};
    case 3: return {"bft4_collapsed", std::make_unique<topo::ButterflyFatTree>(4), core::CollapseMode::Auto};
    default: return {"cube4", std::make_unique<topo::Hypercube>(4), core::CollapseMode::Dense};
  }
}

GeneralModel build(const TopoCase& tc) {
  core::TrafficBuildOptions build;
  build.collapse = tc.collapse;
  return core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform(), {},
                                   build);
}

class SolvePlanParity : public ::testing::TestWithParam<int> {};

TEST_P(SolvePlanParity, EveryTuneMatchesTheReferenceSolverBitwise) {
  const TopoCase tc = make_topology(GetParam());
  const GeneralModel base = build(tc);
  EXPECT_EQ(base.graph.reverse_topological_order(),
            oracle::reverse_topological_order(base.graph))
      << tc.tag << ": the CSR Kahn sort must emit the same order";
  ASSERT_FALSE(base.graph.reverse_topological_order().empty()) << tc.tag;

  const std::vector<std::pair<const char*, arrivals::ArrivalSpec>> arrivals = {
      {"poisson", arrivals::ArrivalSpec::poisson()},
      {"batch2", arrivals::ArrivalSpec::batch(2.0)},
      {"deterministic", arrivals::ArrivalSpec::deterministic()},
      {"mmpp2", arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0)},
  };
  for (int lanes : {1, 2, 4}) {
    for (int buffers : {2, 8, util::kInfiniteBufferDepth}) {
      for (double bw : {0.5, 1.0, 2.0}) {
        for (const auto& [arrival_tag, arrival] : arrivals) {
          GeneralModel m = base;
          m.set_uniform_lanes(lanes);
          m.set_uniform_buffers(buffers);
          m.set_uniform_bandwidth(bw);
          m.set_injection_process(arrival);
          std::ostringstream tag;
          tag << tc.tag << " L=" << lanes << " B=" << buffers << " bw=" << bw
              << " " << arrival_tag;
          expect_model_parity(m, tag.str());
          if (HasFailure()) return;  // one cell's report is enough
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generated, SolvePlanParity, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(make_topology(info.param).tag);
                         });

TEST(SolvePlan, EveryAblationMaskMatchesTheReferenceSolver) {
  // All 64 masks of the six switches on one cell where every extension has
  // something to switch: lanes, finite buffers, slow links, bursty arrivals.
  const TopoCase tc = make_topology(3);
  GeneralModel base = build(tc);
  base.set_uniform_lanes(2);
  base.set_uniform_buffers(8);
  base.set_uniform_bandwidth(0.5);
  base.set_injection_process(arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0));
  for (int mask = 0; mask < 64; ++mask) {
    GeneralModel m = base;
    queueing::AblationOptions& abl = m.opts.ablation;
    abl.multi_server = (mask & 1) != 0;
    abl.blocking_correction = (mask & 2) != 0;
    abl.erratum_2lambda = (mask & 4) != 0;
    abl.virtual_channels = (mask & 8) != 0;
    abl.bursty_arrivals = (mask & 16) != 0;
    abl.finite_buffers = (mask & 32) != 0;
    expect_model_parity(m, std::string(tc.tag) + " mask=" + std::to_string(mask));
    if (HasFailure()) return;
  }
}

/// inj → {a ⇄ b} → eject: the ring makes the dependency graph cyclic.
GeneralModel ring_model() {
  GeneralModel m;
  core::ChannelClass ej;
  ej.label = "eject";
  ej.rate_per_link = 1.0;
  ej.terminal = true;
  const int e = m.graph.add_channel(ej);
  core::ChannelClass ring;
  ring.label = "ring";
  ring.rate_per_link = 1.0;
  const int a = m.graph.add_channel(ring);
  const int b = m.graph.add_channel(ring);
  core::ChannelClass inj;
  inj.label = "inj";
  inj.rate_per_link = 1.0;
  inj.servers = 2;
  const int i = m.graph.add_channel(inj);
  m.graph.add_transition(i, a, 1.0, 0.5);
  m.graph.add_transition(a, b, 0.5, 0.5);
  m.graph.add_transition(a, e, 0.5, 0.5);
  m.graph.add_transition(b, a, 0.5, 0.5);
  m.graph.add_transition(b, e, 0.5, 0.5);
  m.injection_classes = {i};
  m.mean_distance = 3.0;
  m.opts.worm_flits = 8.0;
  return m;
}

TEST(SolvePlan, CyclicGraphFixedPointMatchesTheReferenceSolver) {
  GeneralModel m = ring_model();
  ASSERT_FALSE(m.graph.acyclic());
  EXPECT_TRUE(m.graph.reverse_topological_order().empty());
  expect_model_parity(m, "ring");
  const SolveResult res = m.solve(0.5 * m.saturation_rate());
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.iterations, 1);
  EXPECT_GT(res.telemetry.max_residual, 0.0);

  // A capped fixed point that stops short reports what it reached.
  m.opts.max_iterations = 3;
  expect_model_parity(m, "ring capped");
  EXPECT_FALSE(m.solve(0.5 * oracle::saturation_rate(m, m.opts)).converged);
}

TEST(SolvePlan, OutlivesItsGraphAndIgnoresLaterTunes) {
  // The plan copies what it needs: solving it after the graph changed (or
  // died) gives the answer of the graph it was compiled from.
  GeneralModel m = build(make_topology(4));
  SolveOptions opts = m.opts;
  opts.injection_scale = 0.01;
  const SolveResult before = oracle::solve_channel_graph(m.graph, opts);
  std::unique_ptr<core::SolvePlan> plan;
  {
    GeneralModel scratch = m;
    plan = std::make_unique<core::SolvePlan>(scratch.graph, opts);
    scratch.set_uniform_lanes(4);
  }
  expect_same_result(plan->solve(0.01), before, "compiled before the tune");
}

}  // namespace
}  // namespace wormnet
