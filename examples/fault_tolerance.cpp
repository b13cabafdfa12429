// fault_tolerance — failure injection, degraded routing, and N−1/N−k
// availability what-ifs, end to end.
//
// The fault layer answers the operator question the healthy model cannot:
// "which failure hurts most, and what does the fabric look like while we
// run degraded?"  A topo::FaultSet names failed links/switches against a
// base topology; topo::FaultedTopology is the degraded routing view — the
// same channel structure, so a resident model reaches any failure scenario
// by one cold build on that view.  The QueryEngine sweeps every N−1
// scenario without touching the resident, building one view per link
// orbit of the fat-tree's symmetry and serving the orbit's other links
// that answer.
//
// This session:
//  1. builds a resident model of a healthy levels-3 fat-tree (64 PEs);
//  2. runs the N−1 availability sweep over all 48 failable links (2 cold
//     builds, one per link orbit), printing the build count and the worst
//     offenders (rank, failed link, degraded latency, cost class);
//  3. asks two N−k what-ifs — one parent lost vs BOTH parents of a level-1
//     switch lost — showing the Disconnected classification and the
//     unroutable fraction when a block is cut off;
//  4. cross-checks the worst N−1 scenario against the flit-level simulator
//     running on the SAME FaultedTopology view.
//
//   ./fault_tolerance [--levels=3] [--load=0.25]   (load: fraction of sat)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "wormnet.hpp"

namespace {

const char* cost_name(wormnet::harness::QueryCost c) {
  switch (c) {
    case wormnet::harness::QueryCost::Memoized: return "memoized";
    case wormnet::harness::QueryCost::Reevaluate: return "reevaluate";
    case wormnet::harness::QueryCost::Retune: return "retune";
    case wormnet::harness::QueryCost::Rebuild: return "rebuild";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormnet;
  using Clock = std::chrono::steady_clock;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const double load_frac = args.get_double("load", 0.25);
  harness::reject_unknown_flags(args);

  topo::ButterflyFatTree ft(levels);
  std::printf("fault tolerance: butterfly fat-tree, N = %d processors\n",
              ft.num_processors());

  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform());
  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double sat = engine.run(sat_q).saturation_rate;
  const double lambda0 = sat * load_frac;
  std::printf("healthy saturation λ₀* = %.6f msg/cycle/PE; querying at %.0f%%\n\n",
              sat, 100.0 * load_frac);

  // -- N−1 sweep: every failable link, one cold build per link orbit -------
  const std::uint64_t builds0 = engine.served_rebuild();
  const auto t0 = Clock::now();
  const harness::AvailabilityReport n1 = engine.availability_n_minus_1(0, lambda0);
  const double sweep_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::printf("N-1 sweep: %zu link-failure scenarios, %llu cold builds "
              "(one per link orbit), in %.1f ms (healthy baseline %.3f cycles)\n",
              n1.rows.size(),
              static_cast<unsigned long long>(engine.served_rebuild() - builds0),
              sweep_ms, n1.baseline.latency);
  std::printf("  %-4s %-22s %10s %9s %s\n", "rank", "failed link", "latency",
              "Δ vs base", "cost");
  for (std::size_t i = 0; i < n1.rows.size() && i < 5; ++i) {
    const harness::AvailabilityRow& row = n1.rows[i];
    std::printf("  %-4zu %-22s %10.3f %8.2f%% %s\n", i + 1, row.label.c_str(),
                row.est.latency,
                100.0 * (row.est.latency / n1.baseline.latency - 1.0),
                cost_name(row.cost));
  }
  std::printf("  ... every scenario status Ok: %d/%zu (N-1 severs nothing "
              "on a fat-tree)\n\n",
              n1.scenarios_ok, n1.rows.size());

  // -- N−k what-ifs: losing one parent vs both parents of one switch ------
  const int s1 = ft.switch_id(1, 0);
  auto one = std::make_shared<topo::FaultSet>(ft);
  one->fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  auto cut = std::make_shared<topo::FaultSet>(ft);
  cut->fail_link(s1, topo::ButterflyFatTree::kParentPort0);
  cut->fail_link(s1, topo::ButterflyFatTree::kParentPort1);
  const harness::AvailabilityReport nk = engine.availability_scenarios(
      0, lambda0, {one, cut}, {"one parent", "all parents"});
  std::printf("N-k what-ifs on switch (level 1, 0):\n");
  for (const harness::AvailabilityRow& row : nk.rows) {
    std::printf("  %-12s status=%-12s unroutable=%5.1f%%  latency=%.3f (%s)\n",
                row.label.c_str(),
                row.est.status == core::SolveStatus::Disconnected
                    ? "Disconnected"
                    : (row.est.status == core::SolveStatus::Ok ? "Ok" : "other"),
                100.0 * row.est.unroutable_fraction, row.est.latency,
                cost_name(row.cost));
  }

  // -- Cross-check the worst N−1 scenario against the simulator -----------
  const harness::AvailabilityRow& worst = n1.rows.front();
  topo::FaultedTopology degraded(ft, *worst.faults);
  sim::SimConfig cfg;
  cfg.load_flits = lambda0 * 16.0;
  cfg.worm_flits = 16;
  cfg.seed = 4242;
  cfg.warmup_cycles = 8000;
  cfg.measure_cycles = 40000;
  cfg.max_cycles = 600000;
  cfg.channel_stats = false;
  harness::SimEngine sim_engine;
  harness::SimCell cell{&degraded, cfg, 1, worst.label};
  const harness::SimCellResult sim_out = sim_engine.run_cell(cell);
  const double sim_latency = sim_out.runs.front().latency.mean();
  std::printf("\nworst N-1 (%s) vs simulator on the same degraded view:\n"
              "  model %.3f cycles, sim %.3f cycles, error %.2f%%\n",
              worst.label.c_str(), worst.est.latency, sim_latency,
              100.0 * std::abs(worst.est.latency - sim_latency) / sim_latency);
  return 0;
}
