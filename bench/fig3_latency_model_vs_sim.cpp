// FIG3 — the paper's headline experiment: average latency vs offered load
// for the 1024-processor butterfly fat-tree, worms of 16/32/64 flits,
// analytical model against flit-level simulation (paper Fig. 3).
//
// Success criteria (shape, per reproduction rules):
//  * model tracks simulation from zero load through the knee;
//  * zero-load latencies ~ s_f + D̄ - 1 (≈ 24.3 / 40.3 / 72.3 cycles);
//  * all three worm lengths saturate near the same flit load (the model is
//    exactly scale-invariant in worm length; the simulator nearly so);
//  * past the knee the simulator reports saturation where the model
//    diverges.
//
//   ./fig3_latency_model_vs_sim [--levels=5] [--worms=16,32,64] [--quick]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 5));
  const auto worms = args.get_int_list("worms", {16, 32, 64});
  harness::SweepConfig base = bench::sweep_defaults(args, 16);
  bench::reject_unknown_flags(args);

  topo::ButterflyFatTree ft(levels);
  std::printf("FIG3: %s, Poisson arrivals, uniform destinations\n",
              ft.name().c_str());

  // One SweepEngine for the model curves, one SimEngine campaign runner for
  // the simulation points: each worm length's load sweep fans out across
  // the pool instead of simulating point by point.
  harness::SweepEngine engine;
  harness::SimEngine sims;
  for (long worm : worms) {
    core::FatTreeModel model({.levels = levels,
                              .worm_flits = static_cast<double>(worm)});
    const double sat = model.saturation_load();
    harness::SweepConfig sweep = base;
    sweep.worm_flits = static_cast<int>(worm);
    sweep.loads = bench::fraction_loads(sat);

    const auto rows = harness::compare_latency(ft, model, sweep, &engine, &sims);
    harness::print_experiment(
        "FIG3 series: " + std::to_string(worm) + "-flit worms (model saturation " +
            std::to_string(sat) + " flits/cyc/PE)",
        harness::comparison_table(rows));
    std::printf("mean |model-sim| latency error over stable points: %.2f%%\n",
                harness::mean_abs_pct_error(rows));
    std::printf("zero-load reference s_f + Dbar - 1 = %.2f cycles\n",
                static_cast<double>(worm) + model.mean_distance() - 1.0);
  }
  return 0;
}
