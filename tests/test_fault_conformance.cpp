// Degraded-routing model-vs-sim conformance and the N−1 availability sweep.
//
// The fault layer's acceptance table: a levels-2 butterfly fat-tree under
// uniform traffic, degraded by a single failure, simulated with the SAME
// FaultedTopology the model solves — the decorator's route() IS the degraded
// routing, so the simulator exercises it with no fault-specific sim code.
// Axes:
//  * taper    — healthy tier bandwidths (1:1) or tier-1 links at half the
//               processor bandwidth (2:1, the oversubscribed fabric);
//  * failure  — an up-link (one level-1 switch loses a parent; the redundant
//               parent absorbs the reroute) or a mid-fabric switch (one top
//               switch fails wholesale; the other carries everything);
//  * load     — 20% and 50% of the DEGRADED model's own saturation point.
// The relative latency error |model − sim| / sim must stay within 10% at
// the 20% point and 15% at 50% — the same below-80%-load contract as the
// healthy and heterogeneous tables (raw errors in EXPERIMENTS.md).
//
// Alongside the table: the N−1 availability sweep acceptance — every
// failable link of a 3-level fat-tree swept through harness::QueryEngine,
// one cold build per link orbit (metered as Rebuild; the other members
// Memoized, each within 1e-12 of its own cold build) that leaves the
// resident untouched, ranked worst-first, and memoized on repeat.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/traffic_model.hpp"
#include "harness/query_engine.hpp"
#include "harness/sim_engine.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "topo/mesh.hpp"

namespace wormnet {
namespace {

enum class Taper { T1to1, T2to1 };
enum class Failure { UpLink, MidSwitch };

struct Cell {
  Taper taper;
  Failure failure;
  double frac;   ///< fraction of the degraded model's saturation rate
  double bound;  ///< relative latency error bound
};

// The below-80%-load contract: <= 0.10 at 20%, <= 0.15 at 50%.
const Cell kCells[] = {
    {Taper::T1to1, Failure::UpLink, 0.2, 0.10},
    {Taper::T1to1, Failure::UpLink, 0.5, 0.15},
    {Taper::T1to1, Failure::MidSwitch, 0.2, 0.10},
    {Taper::T1to1, Failure::MidSwitch, 0.5, 0.15},
    {Taper::T2to1, Failure::UpLink, 0.2, 0.10},
    {Taper::T2to1, Failure::UpLink, 0.5, 0.15},
    {Taper::T2to1, Failure::MidSwitch, 0.2, 0.10},
    {Taper::T2to1, Failure::MidSwitch, 0.5, 0.15},
};
constexpr std::size_t kNumCells = std::size(kCells);

std::string cell_label(const Cell& c) {
  std::string name = c.taper == Taper::T1to1 ? "Taper1to1" : "Taper2to1";
  name += c.failure == Failure::UpLink ? "UpLink" : "MidSwitch";
  name += c.frac == 0.2 ? "Load20" : "Load50";
  return name;
}

/// One live (base, faults, view) triple per taper x failure combination;
/// the view must outlive both the model and the SimNetwork.
struct DegradedFabric {
  std::unique_ptr<topo::ButterflyFatTree> base;
  std::unique_ptr<topo::FaultSet> faults;
  std::unique_ptr<topo::FaultedTopology> view;
};

DegradedFabric make_fabric(Taper taper, Failure failure) {
  DegradedFabric f;
  f.base = std::make_unique<topo::ButterflyFatTree>(2);  // 16 processors
  if (taper == Taper::T2to1) f.base->set_tier_bandwidth(1, 0.5);
  f.faults = std::make_unique<topo::FaultSet>(*f.base);
  if (failure == Failure::UpLink) {
    f.faults->fail_link(f.base->switch_id(1, 0),
                        topo::ButterflyFatTree::kParentPort0);
  } else {
    f.faults->fail_switch(f.base->switch_id(2, 0));
  }
  f.view = std::make_unique<topo::FaultedTopology>(*f.base, *f.faults);
  return f;
}

class Campaign {
 public:
  struct CellData {
    double model_sat = 0.0;
    core::LatencyEstimate model;
    sim::SimResult sim;
  };

  static const Campaign& get() {
    static Campaign instance;
    return instance;
  }

  const CellData& cell(std::size_t i) const { return cells_[i]; }

 private:
  Campaign() {
    // Four degraded fabrics, shared by their two load points each.
    for (const Taper taper : {Taper::T1to1, Taper::T2to1})
      for (const Failure failure : {Failure::UpLink, Failure::MidSwitch})
        fabrics_.push_back(make_fabric(taper, failure));
    const auto fabric_of = [](const Cell& c) -> std::size_t {
      return static_cast<std::size_t>(c.taper == Taper::T2to1) * 2 +
             static_cast<std::size_t>(c.failure == Failure::MidSwitch);
    };

    const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
    core::SolveOptions opts;
    opts.worm_flits = 16.0;
    cells_.resize(kNumCells);
    for (std::size_t i = 0; i < kNumCells; ++i) {
      const topo::FaultedTopology& view = *fabrics_[fabric_of(kCells[i])].view;
      const core::GeneralModel model =
          core::build_traffic_model(view, spec, opts);
      CellData& out = cells_[i];
      out.model_sat = core::model_saturation_rate(model, opts);
      out.model =
          core::model_latency(model, out.model_sat * kCells[i].frac, opts);
    }

    std::vector<harness::SimCell> sim_cells;
    for (std::size_t i = 0; i < kNumCells; ++i) {
      harness::SimCell sc;
      sc.topology = fabrics_[fabric_of(kCells[i])].view.get();
      sc.cfg.load_flits = cells_[i].model_sat * kCells[i].frac * 16.0;
      sc.cfg.worm_flits = 16;
      sc.cfg.seed = 9100 + static_cast<std::uint64_t>(i);
      sc.cfg.traffic = spec;
      sc.cfg.warmup_cycles = 8000;
      sc.cfg.measure_cycles = 40000;
      sc.cfg.max_cycles = 600000;
      sc.cfg.channel_stats = false;
      sc.label = cell_label(kCells[i]);
      sim_cells.push_back(std::move(sc));
    }
    harness::SimEngine engine;
    const std::vector<harness::SimCellResult> results =
        engine.run_cells(sim_cells);
    for (std::size_t i = 0; i < kNumCells; ++i)
      cells_[i].sim = results[i].runs.front();
  }

  std::vector<DegradedFabric> fabrics_;
  std::vector<CellData> cells_;
};

class FaultConformance : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultConformance, DegradedLatencyWithinCellBounds) {
  const Cell& cell = kCells[GetParam()];
  const Campaign::CellData& data = Campaign::get().cell(GetParam());
  ASSERT_GT(data.model_sat, 0.0);
  ASSERT_EQ(data.model.status, core::SolveStatus::Ok) << cell_label(cell);
  ASSERT_TRUE(data.model.stable) << cell_label(cell);

  ASSERT_TRUE(data.sim.completed) << cell_label(cell);
  ASSERT_FALSE(data.sim.saturated) << cell_label(cell);
  ASSERT_GT(data.sim.latency.count(), 0);
  // A single failure on BFT(2) severs nothing: no demand is unroutable in
  // the model, no message is discarded in the simulator.
  EXPECT_EQ(data.model.unroutable_fraction, 0.0) << cell_label(cell);
  EXPECT_EQ(data.sim.unroutable_messages, 0) << cell_label(cell);

  const double sim_latency = data.sim.latency.mean();
  const double rel_err =
      std::abs(data.model.latency - sim_latency) / sim_latency;
  EXPECT_LE(rel_err, cell.bound)
      << cell_label(cell) << ": model=" << data.model.latency
      << " sim=" << sim_latency;
}

std::string cell_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return cell_label(kCells[info.param]);
}

INSTANTIATE_TEST_SUITE_P(Cells, FaultConformance,
                         ::testing::Range<std::size_t>(0, kNumCells),
                         cell_name);

// Failures cost capacity in the model the way they cost it in the fabric:
// degraded saturation below healthy, and the wholesale top-switch failure
// below the single up-link one, per taper.
TEST(FaultConformanceShape, FailureSeverityOrdersSaturation) {
  const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  for (const Taper taper : {Taper::T1to1, Taper::T2to1}) {
    topo::ButterflyFatTree healthy(2);
    if (taper == Taper::T2to1) healthy.set_tier_bandwidth(1, 0.5);
    const double sat_healthy = core::model_saturation_rate(
        core::build_traffic_model(healthy, spec, opts), opts);

    const DegradedFabric uplink = make_fabric(taper, Failure::UpLink);
    const DegradedFabric midsw = make_fabric(taper, Failure::MidSwitch);
    const double sat_uplink = core::model_saturation_rate(
        core::build_traffic_model(*uplink.view, spec, opts), opts);
    const double sat_midsw = core::model_saturation_rate(
        core::build_traffic_model(*midsw.view, spec, opts), opts);

    EXPECT_LT(sat_uplink, sat_healthy) << "taper " << static_cast<int>(taper);
    EXPECT_LT(sat_midsw, sat_uplink) << "taper " << static_cast<int>(taper);
  }
}

// ---------------------------------------------------------------------------
// N−1 availability sweep through the query engine (acceptance criterion).
// ---------------------------------------------------------------------------

TEST(AvailabilitySweep, NMinus1OverEveryLinkLeavesResidentIntact) {
  // 3-level fat-tree: 64 processors, 16 + 8 + 4 switches, 48 failable
  // switch-to-switch links (16·2 level-1→2 plus 8·2 level-2→3).
  topo::ButterflyFatTree ft(3);
  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform());
  const core::GeneralModel& resident = engine.resident_model(0).model();
  const std::uint64_t resident_digest = resident.content_digest();
  const int resident_size = resident.graph.size();

  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double sat = engine.run(sat_q).saturation_rate;
  ASSERT_GT(sat, 0.0);
  const double lambda0 = 0.25 * sat;

  const harness::AvailabilityReport report =
      engine.availability_n_minus_1(0, lambda0);
  ASSERT_EQ(report.rows.size(), 48u);
  EXPECT_EQ(report.lambda0, lambda0);
  EXPECT_EQ(report.baseline.status, core::SolveStatus::Ok);
  ASSERT_TRUE(std::isfinite(report.baseline.latency));

  // Under uniform traffic the 48 links fall into 2 link orbits (level 1→2
  // and level 2→3): the first member of each is cold-built on its fault
  // view, every other member is served that answer.
  const core::SolveOptions opts;
  int rebuilds = 0, memoized = 0;
  for (const harness::AvailabilityRow& row : report.rows) {
    rebuilds += row.cost == harness::QueryCost::Rebuild;
    memoized += row.cost == harness::QueryCost::Memoized;
    // Every row, rebuilt or not, is what a cold build on ITS fault view
    // answers, to the orbit contract's 1e-12.
    const topo::FaultedTopology view(ft, *row.faults);
    const core::LatencyEstimate cold = core::model_latency(
        core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts),
        lambda0, opts);
    EXPECT_EQ(row.est.status, cold.status) << row.label;
    EXPECT_NEAR(row.est.latency, cold.latency, 1e-12 * cold.latency)
        << row.label;
    // N−1 on a fat-tree severs nothing (redundant parents), so every
    // scenario still serves all demand...
    EXPECT_EQ(row.est.unroutable_fraction, 0.0) << row.label;
    EXPECT_EQ(row.est.status, core::SolveStatus::Ok) << row.label;
    EXPECT_FALSE(std::isnan(row.est.latency)) << row.label;
    // ...at a latency no better than the healthy baseline.
    EXPECT_GE(row.est.latency, report.baseline.latency * (1.0 - 1e-9))
        << row.label;
    ASSERT_NE(row.faults, nullptr);
    EXPECT_EQ(row.faults->failed_links().size(), 1u) << row.label;
  }
  EXPECT_EQ(rebuilds, 2);
  EXPECT_EQ(memoized, 46);
  EXPECT_EQ(report.scenarios_ok, 48);
  // Ranked worst-first, deterministically.
  for (std::size_t i = 1; i < report.rows.size(); ++i) {
    EXPECT_GE(report.rows[i - 1].est.latency * (1.0 + 1e-12),
              report.rows[i].est.latency)
        << "rank " << i;
  }
  EXPECT_EQ(engine.served_rebuild(), 2u);
  // The scenarios rebuilt clones: the resident keeps its content and its
  // channel structure.
  EXPECT_EQ(resident.content_digest(), resident_digest);
  EXPECT_EQ(resident.graph.size(), resident_size);

  // The sweep again: every scenario now memoized — the resident service
  // answers availability questions from cache.
  const harness::AvailabilityReport again =
      engine.availability_n_minus_1(0, lambda0);
  ASSERT_EQ(again.rows.size(), report.rows.size());
  for (std::size_t i = 0; i < again.rows.size(); ++i) {
    EXPECT_EQ(again.rows[i].cost, harness::QueryCost::Memoized) << i;
    EXPECT_EQ(again.rows[i].est.latency, report.rows[i].est.latency) << i;
    EXPECT_EQ(again.rows[i].label, report.rows[i].label) << i;
  }
  EXPECT_EQ(engine.served_rebuild(), 2u);
  EXPECT_EQ(resident.content_digest(), resident_digest);
}

// N−k scenarios: a double-parent failure cuts a level-1 switch's block off;
// the report ranks the cut above any single-link row and classifies it
// Disconnected, while the resident itself is left untouched.
TEST(AvailabilitySweep, NMinusKScenariosRankCutsWorst) {
  topo::ButterflyFatTree ft(2);
  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform());
  const core::GeneralModel& resident = engine.resident_model(0).model();
  const std::uint64_t resident_digest = resident.content_digest();
  const int resident_size = resident.graph.size();

  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double lambda0 = 0.25 * engine.run(sat_q).saturation_rate;

  const int s1 = ft.switch_id(1, 0);
  auto one = std::make_shared<topo::FaultSet>(ft);
  one->fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  auto cut = std::make_shared<topo::FaultSet>(ft);
  cut->fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  cut->fail_link(s1, topo::ButterflyFatTree::kParentPort1);

  const harness::AvailabilityReport report = engine.availability_scenarios(
      0, lambda0, {one, cut}, {"one-parent", "both-parents"});
  ASSERT_EQ(report.rows.size(), 2u);
  // The cut ranks first on unroutable demand, regardless of latency.
  EXPECT_EQ(report.rows[0].label, "both-parents");
  EXPECT_EQ(report.rows[0].est.status, core::SolveStatus::Disconnected);
  EXPECT_NEAR(report.rows[0].est.unroutable_fraction, 96.0 / 240.0, 1e-12);
  EXPECT_EQ(report.rows[1].label, "one-parent");
  EXPECT_EQ(report.rows[1].est.status, core::SolveStatus::Ok);
  EXPECT_EQ(report.scenarios_ok, 1);
  for (const harness::AvailabilityRow& row : report.rows)
    EXPECT_EQ(row.cost, harness::QueryCost::Rebuild) << row.label;
  EXPECT_EQ(resident.content_digest(), resident_digest);
  EXPECT_EQ(resident.graph.size(), resident_size);
}

// A dense 8x8 mesh: 112 failable links, each scenario re-routing a different
// subset of destination columns.  Every row must answer, and answer exactly
// what a cold build on that row's degraded view answers.
TEST(AvailabilitySweep, DenseMeshNMinus1MatchesColdFaultedBuilds) {
  const topo::Mesh mesh(8, 2);
  harness::QueryEngine engine(mesh, traffic::TrafficSpec::uniform());

  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double lambda0 = 0.25 * engine.run(sat_q).saturation_rate;

  const harness::AvailabilityReport report =
      engine.availability_n_minus_1(0, lambda0);
  ASSERT_EQ(report.rows.size(), 112u);
  const core::SolveOptions opts;
  for (const harness::AvailabilityRow& row : report.rows) {
    EXPECT_EQ(row.est.status, core::SolveStatus::Ok) << row.label;
    const topo::FaultedTopology view(mesh, *row.faults);
    const core::GeneralModel cold =
        core::build_traffic_model(view, traffic::TrafficSpec::uniform(), opts);
    EXPECT_EQ(row.est.latency, core::model_latency(cold, lambda0, opts).latency)
        << row.label;
  }
}

}  // namespace
}  // namespace wormnet
