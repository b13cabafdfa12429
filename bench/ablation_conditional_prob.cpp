// ABL-COND — an approximation INSIDE the paper, found during reproduction:
// Eq. 22 branches a message on channel ⟨l-1, l⟩ upward with the
// UNCONDITIONAL probability P↑_l, but a worm that already climbed past
// level l-1 is known not to terminate below level l — the exact
// continuation probability is P↑_l / P↑_{l-1}.
//
// This bench quantifies the approximation: the paper side is the closed-form
// FatTreeModel (Eq. 22 as published), the exact side is the exact-flow
// traffic model, symmetry-collapsed (it agrees with the dense per-channel
// graph to machine precision; tested).  Measured verdict: the paper's
// simplification is slightly optimistic, costing under 0.5% latency through
// mid load and ~2.5% at 95% of saturation on N = 1024 — small against the
// model's other idealizations, so the simplification is justified.
//
//   ./ablation_conditional_prob [--levels=5] [--worm=16]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 5));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  bench::reject_unknown_flags(args);

  const core::FatTreeModel paper(
      {.levels = levels, .worm_flits = static_cast<double>(worm)});
  const topo::ButterflyFatTree ft(levels);
  core::SolveOptions opts;
  opts.worm_flits = worm;
  const core::GeneralModel exact =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts,
                                {.collapse = core::CollapseMode::Auto});

  harness::SweepEngine engine;
  const double sat_paper = paper.saturation_load();
  const double sat_exact = exact.saturation_load();

  const std::vector<double> fracs{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95};
  std::vector<double> loads;
  for (double f : fracs) loads.push_back(sat_paper * f);
  const auto pts_paper = engine.sweep_load(paper, loads);
  const auto pts_exact = engine.sweep_load(exact, loads);

  util::Table t({"load(flits/cyc)", "paper (uncond. P↑) L", "exact conditional L",
                 "difference %"});
  t.set_precision(0, 4);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double a = pts_paper[i].est.latency;
    const double b = pts_exact[i].est.latency;
    t.add_row({loads[i], a, b, 100.0 * (a - b) / b});
  }
  harness::print_experiment(
      "ABL-COND: Eq. 22's unconditional P↑ vs exact conditional branching, N=" +
          std::to_string(static_cast<long>(util::ipow(4, levels))),
      t);
  std::printf("saturation: paper form %.5f vs exact conditionals %.5f"
              " flits/cyc/PE (%.2f%% apart)\n",
              sat_paper, sat_exact, 100.0 * (sat_paper / sat_exact - 1.0));
  return 0;
}
