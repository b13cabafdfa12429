// quickstart — the smallest useful wormnet program.
//
// Builds the analytical model of a 64-processor butterfly fat-tree, runs a
// load sweep through the SweepEngine (fanned out on its thread pool), asks
// for the saturation throughput, and cross-checks one point against the
// flit-level simulator.
//
//   ./quickstart [--levels=3] [--worm=16]
#include <cstdio>

#include "wormnet.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const int worm = static_cast<int>(args.get_int("worm", 16));

  // 1. The analytical model (the paper's Eq. 12-26): instant answers.
  core::FatTreeModel model(
      {.levels = levels, .worm_flits = static_cast<double>(worm)});
  std::printf("butterfly fat-tree: N = %ld processors, worms of %d flits\n",
              model.num_processors(), worm);
  std::printf("mean distance D̄ = %.3f channels, zero-load latency = %.1f cycles\n",
              model.mean_distance(), worm + model.mean_distance() - 1.0);

  // 2. The saturation throughput: the model's own Eq. 26 search.
  const double saturation = model.saturation_load();
  std::printf("model saturation throughput: %.4f flits/cycle/processor\n\n",
              saturation);

  // 3. The sweep engine: batched parallel evaluation.
  harness::SweepEngine engine;
  std::printf("%-22s %-14s\n", "load(flits/cyc/PE)", "latency(cycles)");
  const auto points =
      engine.sweep_saturation_fractions(model, {0.1, 0.3, 0.5, 0.7, 0.9});
  for (const harness::SweepPoint& pt : points)
    std::printf("%-22.4f %-14.2f\n", pt.load_flits, pt.est.latency);

  // 4. One simulation point to show the model is honest.
  const double load = saturation * 0.5;
  sim::SimConfig cfg;
  cfg.load_flits = load;
  cfg.worm_flits = worm;
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 30'000;
  topo::ButterflyFatTree ft(levels);
  const sim::SimResult r = sim::simulate(ft, cfg);
  std::printf("\nat load %.4f: model says %.2f cycles, simulation measured %.2f"
              " (+-%.2f, %lld worms)\n",
              load, model.evaluate_load(load).latency, r.latency.mean(),
              r.latency.sem(), static_cast<long long>(r.latency.count()));
  return 0;
}
