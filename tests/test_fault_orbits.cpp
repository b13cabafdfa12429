// Fault orbits: harness::QueryEngine serves every single-link failure with
// the answer of its link orbit's first member (one cold build per orbit).
//
// Contract under test, on seeded generated cases — butterfly fat-trees
// BFT(2..4) under uniform or hotspot traffic, with tapered tier bandwidths
// and 1/2/4 lanes, and hypercubes (3..6) under uniform traffic:
//  * every N−1 row is within 1e-12 relative of a cold build_traffic_model
//    on the row's OWN topo::FaultedTopology, with equal SolveStatus and
//    equal unroutable_fraction.  This is what licenses ButterflyFatTree and
//    Hypercube to declare Topology::symmetry_commutes_with_faults();
//  * the number of Rebuild rows is the number of link orbits (uniform
//    traffic: BFT(n) has n−1, hypercube(d) has d).
// Negative cases: a mesh (whose reflections do not commute with the
// survivor BFS's lowest-port tie-break, so it declares nothing) and a
// hypercube with a hotspot (no symmetry under a pin) build every row and
// stay bitwise equal to cold builds, as do N−2, switch-failure,
// traffic-delta and ClassBreakdown fault queries on a symmetric resident.
//
// A generated case's test name carries its seed: replay one with
//   ./test_fault_orbits --gtest_filter='Seeds/FaultOrbitParity.MatchesColdBuilds/<seed>'
// (StressSeeds/ for the nightly range, registered under the stress label).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/traffic_model.hpp"
#include "harness/query_engine.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/channels.hpp"
#include "topo/fault.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "topo/symmetry.hpp"
#include "util/rng.hpp"

namespace wormnet {
namespace {

using harness::AvailabilityReport;
using harness::AvailabilityRow;
using harness::QueryCost;

/// One generated case: a topology, a resident spec and a load fraction.
struct Case {
  std::unique_ptr<topo::Topology> topo;
  traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  double load = 0.3;  ///< λ₀ as a fraction of the healthy saturation rate
  std::string desc;
};

Case draw_case(std::uint64_t seed) {
  util::Rng rng(seed);
  Case c;
  std::ostringstream d;
  c.load = 0.2 + 0.5 * rng.uniform();
  if (rng.bernoulli(0.6)) {
    const int levels = static_cast<int>(rng.uniform_range(2, 4));
    auto ft = std::make_unique<topo::ButterflyFatTree>(levels);
    d << "bft(" << levels << ")";
    if (rng.bernoulli(0.5)) {
      const int h = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(ft->num_processors())));
      const double frac = 0.05 + 0.3 * rng.uniform();
      c.spec = traffic::TrafficSpec::hotspot(frac, h);
      d << " hotspot(" << frac << ", " << h << ")";
    } else {
      d << " uniform";
    }
    if (rng.bernoulli(0.4)) {
      const double tiers[] = {1.0, 0.5, 0.25};
      d << " taper";
      for (int t = 1; t < levels; ++t) {
        const double bw = tiers[rng.uniform_int(3)];
        ft->set_tier_bandwidth(t, bw);
        d << " " << bw;
      }
    }
    const int lane_choices[] = {1, 2, 4};
    const int lanes = lane_choices[rng.uniform_int(3)];
    ft->set_uniform_lanes(lanes);
    d << " lanes " << lanes;
    c.topo = std::move(ft);
  } else {
    const int dims = static_cast<int>(rng.uniform_range(3, 6));
    c.topo = std::make_unique<topo::Hypercube>(dims);
    d << "hypercube(" << dims << ") uniform";
  }
  d << " load " << c.load;
  c.desc = d.str();
  return c;
}

/// Link orbits of the topology's failable links under the spec's pins, from
/// topo::topology_symmetry — or one per link when nothing is declared.
int count_link_orbits(const topo::Topology& t,
                      const traffic::TrafficSpec& spec) {
  const topo::ChannelTable ct(t);
  topo::SymmetryClasses sym;
  std::vector<int> pins;
  const bool symmetric = t.symmetry_commutes_with_faults() &&
                         spec.symmetric(pins) &&
                         topo::topology_symmetry(t, ct, pins, sym);
  std::set<std::pair<int, int>> orbits;
  int links = 0;
  for (int node = 0; node < t.num_nodes(); ++node) {
    if (t.is_processor(node)) continue;
    for (int port = 0; port < t.num_ports(node); ++port) {
      const int peer = t.neighbor(node, port);
      if (peer == topo::kNoNode || t.is_processor(peer)) continue;
      if (std::make_pair(peer, t.neighbor_port(node, port)) <
          std::make_pair(node, port))
        continue;
      ++links;
      if (!symmetric) continue;
      const int a = sym.channel_class[static_cast<std::size_t>(ct.from(node, port))];
      const int b = sym.channel_class[static_cast<std::size_t>(ct.into(node, port))];
      orbits.emplace(std::min(a, b), std::max(a, b));
    }
  }
  return symmetric ? static_cast<int>(orbits.size()) : links;
}

core::LatencyEstimate cold_latency(const topo::Topology& base,
                                   const traffic::TrafficSpec& spec,
                                   const topo::FaultSet& faults,
                                   double lambda0) {
  const topo::FaultedTopology view(base, faults);
  const core::SolveOptions opts;
  return core::model_latency(core::build_traffic_model(view, spec, opts),
                             lambda0, opts);
}

bool close_rel(double a, double b, double rel) {
  if (!std::isfinite(a) || !std::isfinite(b)) return a == b;
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

/// Run the N−1 sweep and check every row against its own cold build.
/// rel == 0 demands bitwise equality.  Returns the Rebuild row count.
int check_sweep(const topo::Topology& t, const traffic::TrafficSpec& spec,
                double load, double rel, const std::string& tag) {
  harness::QueryEngine::Options eo;
  eo.threads = 2;
  harness::QueryEngine engine(t, spec, eo);
  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double lambda0 = load * engine.run(sat_q).saturation_rate;

  const AvailabilityReport report = engine.availability_n_minus_1(0, lambda0);
  int rebuilds = 0;
  for (const AvailabilityRow& row : report.rows) {
    EXPECT_TRUE(row.cost == QueryCost::Rebuild ||
                row.cost == QueryCost::Memoized)
        << tag << " " << row.label;
    rebuilds += row.cost == QueryCost::Rebuild;
    const core::LatencyEstimate cold =
        cold_latency(t, spec, *row.faults, lambda0);
    EXPECT_EQ(row.est.status, cold.status) << tag << " " << row.label;
    EXPECT_EQ(row.est.unroutable_fraction, cold.unroutable_fraction)
        << tag << " " << row.label;
    if (rel == 0.0) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row.est.latency),
                std::bit_cast<std::uint64_t>(cold.latency))
          << tag << " " << row.label << ": engine " << row.est.latency
          << " vs cold " << cold.latency;
    } else {
      EXPECT_TRUE(close_rel(row.est.latency, cold.latency, rel))
          << tag << " " << row.label << ": engine " << row.est.latency
          << " vs cold " << cold.latency;
    }
  }
  EXPECT_EQ(engine.served_rebuild(), static_cast<std::uint64_t>(rebuilds))
      << tag;
  return rebuilds;
}

// ------------------------------------------------------- generated cases ---

class FaultOrbitParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultOrbitParity, MatchesColdBuilds) {
  const std::uint64_t seed = GetParam();
  const Case c = draw_case(seed);
  const std::string tag = "seed " + std::to_string(seed) + " [" + c.desc + "]";
  SCOPED_TRACE(tag);
  const int orbits = count_link_orbits(*c.topo, c.spec);
  EXPECT_EQ(check_sweep(*c.topo, c.spec, c.load, 1e-12, tag), orbits);
}

std::string seed_name(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return std::to_string(info.param);
}

// A small seed range in the PR gate; a large one nightly (stress label).
INSTANTIATE_TEST_SUITE_P(Seeds, FaultOrbitParity,
                         ::testing::Range<std::uint64_t>(1, 13), seed_name);
INSTANTIATE_TEST_SUITE_P(StressSeeds, FaultOrbitParity,
                         ::testing::Range<std::uint64_t>(1000, 1064),
                         seed_name);

// --------------------------------------------------------- named cases ---

TEST(FaultOrbits, UniformOrbitCountsMatchTheClosedForm) {
  // BFT(n) under uniform traffic: one orbit per switch-to-switch tier;
  // hypercube(d): one per dimension.  (The generated cases check BFT(4)'s
  // rows against cold builds; here only its build count.)
  for (int levels : {2, 3, 4}) {
    const topo::ButterflyFatTree ft(levels);
    const std::string tag = "bft(" + std::to_string(levels) + ")";
    EXPECT_EQ(count_link_orbits(ft, traffic::TrafficSpec::uniform()), levels - 1)
        << tag;
    harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform());
    const AvailabilityReport report = engine.availability_n_minus_1(0, 1e-3);
    EXPECT_EQ(engine.served_rebuild(), static_cast<std::uint64_t>(levels - 1))
        << tag << ", " << report.rows.size() << " links";
  }
  const topo::ButterflyFatTree ft3(3);
  for (int h : {0, 5}) {
    EXPECT_EQ(count_link_orbits(ft3, traffic::TrafficSpec::hotspot(0.2, h)), 5)
        << "bft(3) hotspot " << h;
  }
  const topo::Hypercube cube(6);
  EXPECT_EQ(check_sweep(cube, traffic::TrafficSpec::uniform(), 0.3, 1e-12,
                        "hypercube(6)"),
            6);
}

// ------------------------------------------------------- negative cases ---

TEST(FaultOrbits, MeshBuildsEveryLinkBitwise) {
  const topo::Mesh mesh(8, 2);
  EXPECT_FALSE(mesh.symmetry_commutes_with_faults());
  EXPECT_EQ(check_sweep(mesh, traffic::TrafficSpec::uniform(), 0.25, 0.0,
                        "mesh 8x8"),
            112);
}

TEST(FaultOrbits, PinnedHypercubeBuildsEveryLinkBitwise) {
  // A hypercube declares no symmetry under a pin, so a hotspot resident
  // keys every failure by its own digest.
  const topo::Hypercube cube(4);
  EXPECT_EQ(check_sweep(cube, traffic::TrafficSpec::hotspot(0.2, 5), 0.3, 0.0,
                        "hypercube(4) hotspot"),
            32);
}

// On a symmetric resident, every fault query that is not ONE link under the
// resident's own spec is its own variant, bitwise equal to a cold build.
TEST(FaultOrbits, OtherFaultQueriesStayBitwiseColdBuilds) {
  topo::ButterflyFatTree ft(3);
  const traffic::TrafficSpec uniform = traffic::TrafficSpec::uniform();
  harness::QueryEngine engine(ft, uniform);
  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double lambda0 = 0.3 * engine.run(sat_q).saturation_rate;

  // Two members of the level 1→2 orbit.
  const auto link = [&](int addr, int port) {
    auto fs = std::make_shared<topo::FaultSet>(ft);
    fs->fail_link(ft.switch_id(1, addr), port);
    return fs;
  };
  auto a = link(0, topo::ButterflyFatTree::kParentPort0);
  auto b = link(3, topo::ButterflyFatTree::kParentPort1);
  auto n2 = std::make_shared<topo::FaultSet>(ft);
  n2->fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  n2->fail_link(ft.switch_id(1, 5), topo::ButterflyFatTree::kParentPort1);
  auto n2b = std::make_shared<topo::FaultSet>(ft);
  n2b->fail_link(ft.switch_id(1, 1), topo::ButterflyFatTree::kParentPort0);
  n2b->fail_link(ft.switch_id(1, 4), topo::ButterflyFatTree::kParentPort1);
  auto sw = std::make_shared<topo::FaultSet>(ft);
  sw->fail_switch(ft.switch_id(3, 0));

  std::vector<harness::WhatIfQuery> qs;
  std::vector<const topo::FaultSet*> fault_of;
  std::vector<traffic::TrafficSpec> spec_of;
  const auto add = [&](std::shared_ptr<topo::FaultSet> fs,
                       const traffic::TrafficSpec& spec, bool delta) {
    harness::WhatIfQuery q;
    q.lambda0 = lambda0;
    q.faults = fs;
    if (delta) q.traffic = spec;
    qs.push_back(q);
    fault_of.push_back(fs.get());
    spec_of.push_back(spec);
  };
  add(n2, uniform, false);   // N−2
  add(n2b, uniform, false);  // an image of it: still its own build
  add(sw, uniform, false);   // a switch failure
  const traffic::TrafficSpec hot = traffic::TrafficSpec::hotspot(0.2, 9);
  add(a, hot, true);  // a traffic delta under one failed link
  add(b, hot, true);
  const std::vector<harness::QueryResult> res = engine.run_batch(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(res[i].cost, QueryCost::Rebuild) << i;
    const core::LatencyEstimate cold =
        cold_latency(ft, spec_of[i], *fault_of[i], lambda0);
    EXPECT_EQ(res[i].est.status, cold.status) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res[i].est.latency),
              std::bit_cast<std::uint64_t>(cold.latency))
        << i;
  }

  // ClassBreakdown rows are per channel, and orbit members permute them:
  // each member gets its own build.
  std::vector<harness::WhatIfQuery> bq(2);
  for (auto& q : bq) {
    q.metric = harness::QueryMetric::ClassBreakdown;
    q.lambda0 = lambda0;
  }
  bq[0].faults = a;
  bq[1].faults = b;
  const std::vector<harness::QueryResult> br = engine.run_batch(bq);
  EXPECT_EQ(br[0].cost, QueryCost::Rebuild);
  EXPECT_EQ(br[1].cost, QueryCost::Rebuild);

  // A single-link query under the resident's own spec — Latency or
  // Saturation — IS orbit-served: b rides a's variant.
  std::vector<harness::WhatIfQuery> oq(4);
  for (std::size_t i = 0; i < oq.size(); ++i) {
    oq[i].lambda0 = lambda0;
    oq[i].faults = i % 2 ? b : a;
    if (i >= 2) oq[i].metric = harness::QueryMetric::Saturation;
  }
  const std::vector<harness::QueryResult> orr = engine.run_batch(oq);
  EXPECT_EQ(orr[0].cost, QueryCost::Rebuild);
  EXPECT_EQ(orr[1].cost, QueryCost::Memoized);
  // a's variant, a new metric: the build is metered once, on orr[0].
  EXPECT_EQ(orr[2].cost, QueryCost::Reevaluate);
  EXPECT_EQ(orr[3].cost, QueryCost::Memoized);
  const topo::FaultedTopology view_b(ft, *b);
  const double cold_sat = core::model_saturation_rate(
      core::build_traffic_model(view_b, uniform, {}), {});
  EXPECT_TRUE(close_rel(orr[3].saturation_rate, cold_sat, 1e-12))
      << orr[3].saturation_rate << " vs cold " << cold_sat;
}

}  // namespace
}  // namespace wormnet
