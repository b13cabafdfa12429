// Tests for the what-if layer (ctest label: query): delta-retune vs
// cold-rebuild parity across topologies × delta axes, the QueryEngine's
// batch determinism (parallel bitwise-identical to serial), dedup /
// memoization accounting, and the collapsed-resident retune case.
//
// Parity contract under test (traffic_model.hpp): after any retune
// sequence the resident agrees with a cold build of the current spec to
// ≤ 1e-12 on every channel rate / self_frac / ca2 and ≤ 1e-9 on latency
// and saturation.
#include "harness/query_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"

namespace wormnet::harness {
namespace {

constexpr double kStateTol = 1e-12;   // rates / self_frac / ca2
constexpr double kMetricTol = 1e-9;   // latency / saturation (relative)

double rel(double a, double b) {
  const double mag = std::max(std::abs(a), std::abs(b));
  return mag == 0.0 ? 0.0 : std::abs(a - b) / mag;
}

/// Full parity check of a retuned resident against a cold rebuild.
void expect_parity(const core::GeneralModel& got, const core::GeneralModel& want,
                   double lambda0, const char* tag) {
  ASSERT_EQ(got.graph.size(), want.graph.size()) << tag;
  for (int id = 0; id < got.graph.size(); ++id) {
    const auto& a = got.graph.at(id);
    const auto& b = want.graph.at(id);
    EXPECT_NEAR(a.rate_per_link, b.rate_per_link, kStateTol)
        << tag << " ch " << id;
    EXPECT_NEAR(a.self_frac, b.self_frac, kStateTol) << tag << " ch " << id;
    EXPECT_NEAR(a.ca2, b.ca2, kStateTol) << tag << " ch " << id;
    EXPECT_EQ(a.lanes, b.lanes) << tag << " ch " << id;
    ASSERT_EQ(a.next.size(), b.next.size()) << tag << " ch " << id;
  }
  EXPECT_NEAR(got.mean_distance, want.mean_distance, kStateTol) << tag;
  const auto ea = got.evaluate(lambda0);
  const auto eb = want.evaluate(lambda0);
  EXPECT_EQ(ea.stable, eb.stable) << tag;
  if (ea.stable) {
    EXPECT_LE(rel(ea.latency, eb.latency), kMetricTol) << tag;
  }
  EXPECT_LE(rel(got.saturation_rate(), want.saturation_rate()), kMetricTol)
      << tag;
}

/// The three dense reference topologies the parity matrix runs over.
struct TopoCase {
  const char* tag;
  std::unique_ptr<topo::Topology> topo;
};

std::vector<TopoCase> parity_topologies() {
  std::vector<TopoCase> cases;
  cases.push_back({"fattree64", std::make_unique<topo::ButterflyFatTree>(3)});
  cases.push_back({"hypercube16", std::make_unique<topo::Hypercube>(4)});
  cases.push_back({"mesh4x4", std::make_unique<topo::Mesh>(4, 2)});
  return cases;
}

// ---------------------------------------------------------------------------
// Delta axis 1: pattern (retune_traffic).

TEST(RetunableTrafficModel, HotspotMoveDeltaParity) {
  // Moving a hotspot touches O(N) pairs — the delta path, not a rebuild.
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::hotspot(0.3, 1));
    const auto report =
        rm.retune_traffic(traffic::TrafficSpec::hotspot(0.3, 2));
    EXPECT_FALSE(report.rebuilt) << tc.tag;
    EXPECT_GT(report.passes, 0) << tc.tag;
    EXPECT_GT(report.changed_pairs, 0) << tc.tag;
    const auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::hotspot(0.3, 2));
    expect_parity(rm.model(), cold, 0.002, tc.tag);
  }
}

TEST(RetunableTrafficModel, PermutationRewireDeltaParity) {
  for (const TopoCase& tc : parity_topologies()) {
    const int n = tc.topo->num_processors();
    std::vector<int> p1(n), p2(n);
    for (int i = 0; i < n; ++i) p1[i] = (i + 1) % n;
    for (int i = 0; i < n; ++i) p2[i] = (i + 3) % n;
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::permutation(p1));
    const auto report =
        rm.retune_traffic(traffic::TrafficSpec::permutation(p2));
    EXPECT_FALSE(report.rebuilt) << tc.tag;
    const auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::permutation(p2));
    expect_parity(rm.model(), cold, 0.002, tc.tag);
  }
}

TEST(RetunableTrafficModel, WholeMatrixChangeFallsBackToRebuildWithParity) {
  // uniform → nearest-neighbor changes every pair: the planner must choose
  // the cold rebuild — and still land exactly on the cold model.
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo, traffic::TrafficSpec::uniform());
    const auto report =
        rm.retune_traffic(traffic::TrafficSpec::nearest_neighbor(0.6));
    EXPECT_TRUE(report.rebuilt) << tc.tag;
    const auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::nearest_neighbor(0.6));
    expect_parity(rm.model(), cold, 0.002, tc.tag);
  }
}

TEST(RetunableTrafficModel, RetuneChainEndsWhereColdBuildDoes) {
  // A long mixed chain must not accumulate drift beyond the contract.
  const topo::Hypercube hc(4);
  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::hotspot(0.1, 0));
  for (int step = 1; step <= 8; ++step)
    rm.retune_traffic(
        traffic::TrafficSpec::hotspot(0.05 + 0.03 * step, step % 16));
  const auto cold = core::build_traffic_model(
      hc, traffic::TrafficSpec::hotspot(0.05 + 0.03 * 8, 8));
  expect_parity(rm.model(), cold, 0.002, "chain");
}

// ---------------------------------------------------------------------------
// Delta axis 2: lanes (bitwise contract).

TEST(RetunableTrafficModel, LaneDeltaBitwiseIdenticalToTopologyRebuild) {
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::hotspot(0.2, 1));
    rm.set_uniform_lanes(4);

    // Cold reference: same topology shape rebuilt with 4 lanes everywhere.
    auto fresh = [&]() -> std::unique_ptr<topo::Topology> {
      if (std::string(tc.tag) == "fattree64")
        return std::make_unique<topo::ButterflyFatTree>(3);
      if (std::string(tc.tag) == "hypercube16")
        return std::make_unique<topo::Hypercube>(4);
      return std::make_unique<topo::Mesh>(4, 2);
    }();
    fresh->set_uniform_lanes(4);
    const auto cold = core::build_traffic_model(
        *fresh, traffic::TrafficSpec::hotspot(0.2, 1));

    // Lanes enter the solve only through ChannelClass::lanes — bitwise.
    ASSERT_EQ(rm.model().graph.size(), cold.graph.size()) << tc.tag;
    for (int id = 0; id < cold.graph.size(); ++id) {
      EXPECT_EQ(rm.model().graph.at(id).rate_per_link,
                cold.graph.at(id).rate_per_link)
          << tc.tag << " ch " << id;
      EXPECT_EQ(rm.model().graph.at(id).lanes, cold.graph.at(id).lanes)
          << tc.tag << " ch " << id;
    }
    EXPECT_EQ(rm.model().evaluate(0.002).latency, cold.evaluate(0.002).latency)
        << tc.tag;
  }
}

TEST(RetunableTrafficModel, LaneTuneSurvivesRetune) {
  const topo::ButterflyFatTree ft(2);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  rm.set_uniform_lanes(4);
  rm.retune_traffic(traffic::TrafficSpec::hotspot(0.2, 9));
  topo::ButterflyFatTree ft4(2);
  ft4.set_uniform_lanes(4);
  const auto cold =
      core::build_traffic_model(ft4, traffic::TrafficSpec::hotspot(0.2, 9));
  expect_parity(rm.model(), cold, 0.003, "lanes survive");
}

// ---------------------------------------------------------------------------
// Delta axis 3: load (scale_injection_rates).

TEST(RetunableTrafficModel, LoadDeltaMatchesScaledLambdaEvaluation) {
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo, traffic::TrafficSpec::uniform());
    rm.scale_injection_rates(1.25);
    const auto cold =
        core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
    const auto scaled = rm.model().evaluate(0.004);
    const auto ref = cold.evaluate(0.004 * 1.25);
    EXPECT_LE(rel(scaled.latency, ref.latency), kMetricTol) << tc.tag;
    // The channel state is identical up to the scaling, so the injection
    // service time (what saturation is defined through) agrees too.  Note
    // λ₀* itself does NOT scale by 1/1.25: Eq. 26's λ·x̄_inj(λ) = 1 puts λ
    // on both sides.
    EXPECT_LE(rel(scaled.inj_service, ref.inj_service), kMetricTol) << tc.tag;
  }
}

TEST(RetunableTrafficModel, LoadScaleComposesAndSurvivesRetune) {
  const topo::Hypercube hc(4);
  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::hotspot(0.2, 1));
  rm.scale_injection_rates(1.5);
  rm.scale_injection_rates(0.8);  // composes to 1.2
  rm.retune_traffic(traffic::TrafficSpec::hotspot(0.2, 7));
  const auto cold = core::build_traffic_model(
      hc, traffic::TrafficSpec::hotspot(0.2, 7));
  const auto got = rm.model().evaluate(0.004);
  const auto ref = cold.evaluate(0.004 * 1.2);
  EXPECT_LE(rel(got.latency, ref.latency), kMetricTol);
}

// ---------------------------------------------------------------------------
// Delta axis 4: arrival process.

TEST(RetunableTrafficModel, ArrivalDeltaParityAndSurvivesRetune) {
  for (const TopoCase& tc : parity_topologies()) {
    core::RetunableTrafficModel rm(*tc.topo,
                                   traffic::TrafficSpec::hotspot(0.2, 1));
    rm.set_injection_process(arrivals::ArrivalSpec::batch(4.0));
    rm.retune_traffic(traffic::TrafficSpec::hotspot(0.2, 2));
    auto cold = core::build_traffic_model(
        *tc.topo, traffic::TrafficSpec::hotspot(0.2, 2));
    cold.set_injection_process(arrivals::ArrivalSpec::batch(4.0));
    expect_parity(rm.model(), cold, 0.001, tc.tag);
    EXPECT_NEAR(rm.model().arrival_ca2(), cold.arrival_ca2(), kStateTol);
    EXPECT_NEAR(rm.model().arrival_batch_residual(),
                cold.arrival_batch_residual(), kStateTol);
  }
}

// ---------------------------------------------------------------------------
// Collapsed-resident retune (composition with the PR 6 orbit path).

TEST(RetunableTrafficModel, CollapsedResidentRetunesOnOrbitPath) {
  const topo::ButterflyFatTree ft(3);
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.1, 0),
                                 {}, build);
  ASSERT_TRUE(rm.collapsed());
  const auto report =
      rm.retune_traffic(traffic::TrafficSpec::hotspot(0.25, 0));
  EXPECT_TRUE(report.collapsed);
  EXPECT_FALSE(report.rebuilt);
  EXPECT_TRUE(rm.collapsed());
  const auto cold = core::build_traffic_model(
      ft, traffic::TrafficSpec::hotspot(0.25, 0), {}, build);
  expect_parity(rm.model(), cold, 0.002, "collapsed hotspot fraction");
}

TEST(RetunableTrafficModel, CollapsedResidentFallsToDenseOnAsymmetricSpec) {
  // A permutation breaks the symmetry: the resident must rebuild densely
  // (no flow state to delta against) and still match the cold dense model.
  const topo::Hypercube hc(4);
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel rm(hc, traffic::TrafficSpec::uniform(), {},
                                 build);
  ASSERT_TRUE(rm.collapsed());
  std::vector<int> perm(16);
  for (int i = 0; i < 16; ++i) perm[i] = (i + 5) % 16;
  const auto report =
      rm.retune_traffic(traffic::TrafficSpec::permutation(perm));
  EXPECT_TRUE(report.rebuilt);
  EXPECT_FALSE(rm.collapsed());
  const auto cold = core::build_traffic_model(
      hc, traffic::TrafficSpec::permutation(perm), {}, build);
  expect_parity(rm.model(), cold, 0.002, "collapsed→dense");
}

// ---------------------------------------------------------------------------
// QueryEngine: batch behavior.

std::vector<WhatIfQuery> mixed_batch(int num_processors) {
  std::vector<WhatIfQuery> batch;
  for (int node = 0; node < 6; ++node) {
    WhatIfQuery q;
    q.traffic = traffic::TrafficSpec::hotspot(0.25, node % num_processors);
    q.lambda0 = 0.002;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.lanes = 4;
    q.metric = QueryMetric::Saturation;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.load_scale = 1.2;
    q.lambda0 = 0.002;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.arrival = arrivals::ArrivalSpec::batch(4.0);
    q.lambda0 = 0.002;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;
    q.lambda0 = 0.002;
    q.metric = QueryMetric::ClassBreakdown;
    batch.push_back(q);
  }
  {
    WhatIfQuery q;  // combined axes
    q.traffic = traffic::TrafficSpec::hotspot(0.3, 2 % num_processors);
    q.lanes = 2;
    q.load_scale = 0.9;
    q.lambda0 = 0.0015;
    batch.push_back(q);
  }
  batch.push_back(batch[0]);  // exact duplicate → Memoized
  return batch;
}

TEST(QueryEngine, ParallelBatchBitwiseIdenticalToSerial) {
  const topo::ButterflyFatTree ft(3);
  const auto batch = mixed_batch(ft.num_processors());

  QueryEngine::Options par;
  par.threads = 4;
  par.parallel = true;
  QueryEngine::Options ser;
  ser.parallel = false;
  QueryEngine qpar(ft, traffic::TrafficSpec::uniform(), par);
  QueryEngine qser(ft, traffic::TrafficSpec::uniform(), ser);

  const auto rp = qpar.run_batch(batch);
  const auto rs = qser.run_batch(batch);
  ASSERT_EQ(rp.size(), rs.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    EXPECT_EQ(rp[i].cost, rs[i].cost) << "i=" << i;
    // Bitwise: exact double equality on every answer field.
    EXPECT_EQ(rp[i].est.latency, rs[i].est.latency) << "i=" << i;
    EXPECT_EQ(rp[i].est.inj_wait, rs[i].est.inj_wait) << "i=" << i;
    EXPECT_EQ(rp[i].saturation_rate, rs[i].saturation_rate) << "i=" << i;
    ASSERT_EQ(rp[i].breakdown.size(), rs[i].breakdown.size()) << "i=" << i;
    for (std::size_t k = 0; k < rp[i].breakdown.size(); ++k) {
      EXPECT_EQ(rp[i].breakdown[k].utilization, rs[i].breakdown[k].utilization);
      EXPECT_EQ(rp[i].breakdown[k].wait, rs[i].breakdown[k].wait);
      EXPECT_EQ(rp[i].breakdown[k].rate, rs[i].breakdown[k].rate);
    }
  }
}

TEST(QueryEngine, AnswersMatchColdRebuiltModels) {
  // Every delta axis answered by the engine must match a from-scratch model
  // carrying the same configuration.  Tune-only deltas (lanes, arrival) on
  // a dense resident run the same arithmetic as the cold tuned model, so
  // they match it bit for bit.
  for (const TopoCase& tc : parity_topologies()) {
    QueryEngine qe(*tc.topo, traffic::TrafficSpec::uniform());

    {  // pattern delta
      WhatIfQuery q;
      q.traffic = traffic::TrafficSpec::hotspot(0.25, 1);
      q.lambda0 = 0.002;
      const auto res = qe.run(q);
      const auto cold = core::build_traffic_model(
          *tc.topo, traffic::TrafficSpec::hotspot(0.25, 1));
      EXPECT_LE(rel(res.est.latency, cold.evaluate(0.002).latency), kMetricTol)
          << tc.tag;
    }
    {  // lane delta
      WhatIfQuery q;
      q.lanes = 4;
      q.metric = QueryMetric::Saturation;
      const auto res = qe.run(q);
      auto cold =
          core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
      cold.set_uniform_lanes(4);
      EXPECT_EQ(res.saturation_rate, cold.saturation_rate()) << tc.tag;
    }
    {  // load delta: engine at λ with scale f ≡ cold at λ·f
      WhatIfQuery q;
      q.load_scale = 1.3;
      q.lambda0 = 0.002;
      const auto res = qe.run(q);
      const auto cold =
          core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
      EXPECT_LE(rel(res.est.latency, cold.evaluate(0.002 * 1.3).latency),
                kMetricTol)
          << tc.tag;
    }
    {  // arrival delta
      WhatIfQuery q;
      q.arrival = arrivals::ArrivalSpec::on_off(0.4, 8.0);
      q.lambda0 = 0.0015;
      const auto res = qe.run(q);
      auto cold =
          core::build_traffic_model(*tc.topo, traffic::TrafficSpec::uniform());
      cold.set_injection_process(arrivals::ArrivalSpec::on_off(0.4, 8.0),
                                 0.0015);
      EXPECT_EQ(res.est.latency, cold.evaluate(0.0015).latency) << tc.tag;
    }
  }
}

TEST(QueryEngine, CostClassesReflectThePlannedWork) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::hotspot(0.2, 1));

  {  // hotspot move: delta-served
    WhatIfQuery q;
    q.traffic = traffic::TrafficSpec::hotspot(0.2, 5);
    q.lambda0 = 0.002;
    const auto res = qe.run(q);
    EXPECT_EQ(res.cost, QueryCost::Retune);
    EXPECT_FALSE(res.retune.rebuilt);
    EXPECT_GT(res.retune.passes, 0);
  }
  {  // whole-matrix change: rebuild, and metered as such
    WhatIfQuery q;
    q.traffic = traffic::TrafficSpec::nearest_neighbor(0.5);
    q.lambda0 = 0.002;
    const auto res = qe.run(q);
    EXPECT_EQ(res.cost, QueryCost::Rebuild);
    EXPECT_TRUE(res.retune.rebuilt);
    // The cold rebuild reports the passes it ran: one per destination.
    EXPECT_EQ(res.retune.passes, ft.num_processors());
  }
  {  // tune-only axes: reevaluate
    WhatIfQuery q;
    q.lanes = 2;
    q.load_scale = 1.1;
    q.lambda0 = 0.002;
    EXPECT_EQ(qe.run(q).cost, QueryCost::Reevaluate);
  }
  {  // identical repeat: memoized
    WhatIfQuery q;
    q.lanes = 2;
    q.load_scale = 1.1;
    q.lambda0 = 0.002;
    EXPECT_EQ(qe.run(q).cost, QueryCost::Memoized);
  }
  EXPECT_EQ(qe.queries_served(), 4u);
  EXPECT_EQ(qe.served_retune(), 1u);
  EXPECT_EQ(qe.served_rebuild(), 1u);
  EXPECT_EQ(qe.served_reevaluate(), 1u);
  EXPECT_EQ(qe.served_memoized(), 1u);
}

TEST(QueryEngine, DedupSharesVariantsAndMemoizesAcrossBatches) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine qe(ft, traffic::TrafficSpec::uniform());

  // Three queries, one variant (same hotspot delta), two distinct λs.
  std::vector<WhatIfQuery> batch(3);
  for (auto& q : batch) q.traffic = traffic::TrafficSpec::hotspot(0.2, 3);
  batch[0].lambda0 = 0.002;
  batch[1].lambda0 = 0.003;
  batch[2].lambda0 = 0.002;  // duplicate of [0]
  const auto res = qe.run_batch(batch);
  EXPECT_EQ(qe.variants_prepared(), 1u);
  EXPECT_EQ(res[2].cost, QueryCost::Memoized);
  EXPECT_EQ(res[2].est.latency, res[0].est.latency);

  // The whole batch again: all memoized, no new variants.
  const auto res2 = qe.run_batch(batch);
  for (const auto& r : res2) EXPECT_EQ(r.cost, QueryCost::Memoized);
  EXPECT_EQ(qe.variants_prepared(), 1u);
  EXPECT_EQ(res2[1].est.latency, res[1].est.latency);
}

TEST(QueryEngine, CollapsedResidentServesSymmetricDeltasOnOrbitPath) {
  const topo::ButterflyFatTree ft(3);
  QueryEngine::Options opts;
  opts.build.collapse = core::CollapseMode::Auto;
  QueryEngine qe(ft, traffic::TrafficSpec::uniform(), opts);
  ASSERT_TRUE(qe.resident_model(0).collapsed());

  WhatIfQuery q;
  q.traffic = traffic::TrafficSpec::hotspot(0.3, 0);
  q.lambda0 = 0.002;
  const auto res = qe.run(q);
  EXPECT_EQ(res.cost, QueryCost::Retune);
  EXPECT_TRUE(res.retune.collapsed);
  const auto cold = core::build_traffic_model(
      ft, traffic::TrafficSpec::hotspot(0.3, 0));
  EXPECT_LE(rel(res.est.latency, cold.evaluate(0.002).latency), kMetricTol);
}

TEST(QueryEngine, ResidentRegistryDedupsByTopologyAndSpec) {
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(4);
  QueryEngine qe;
  const int a = qe.resident(ft, traffic::TrafficSpec::uniform());
  const int b = qe.resident(ft, traffic::TrafficSpec::uniform());
  const int c = qe.resident(ft, traffic::TrafficSpec::hotspot(0.2, 0));
  const int d = qe.resident(hc, traffic::TrafficSpec::uniform());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(qe.num_residents(), 3u);

  WhatIfQuery q;
  q.lambda0 = 0.002;
  EXPECT_GT(qe.run(d, q).est.latency, 0.0);
}

TEST(QueryEngine, ClassBreakdownRowsMatchDirectSolve) {
  const topo::Hypercube hc(4);
  QueryEngine qe(hc, traffic::TrafficSpec::uniform());
  WhatIfQuery q;
  q.metric = QueryMetric::ClassBreakdown;
  q.lambda0 = 0.003;
  const auto res = qe.run(q);
  const auto cold =
      core::build_traffic_model(hc, traffic::TrafficSpec::uniform());
  const auto sol = cold.solve(0.003);
  ASSERT_EQ(static_cast<int>(res.breakdown.size()), cold.graph.size());
  for (int id = 0; id < cold.graph.size(); ++id) {
    const auto& row = res.breakdown[static_cast<std::size_t>(id)];
    EXPECT_EQ(row.class_id, id);
    EXPECT_NEAR(row.utilization, sol.utilization(id), kMetricTol);
    EXPECT_NEAR(row.wait, sol.wait(id), kMetricTol);
    EXPECT_NEAR(row.rate, cold.graph.at(id).rate_per_link * 0.003, kStateTol);
  }
}

}  // namespace
}  // namespace wormnet::harness
