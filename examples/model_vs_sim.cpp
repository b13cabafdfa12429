// model_vs_sim — full latency-sweep comparison on one configuration.
//
// Reproduces a single series of the paper's Figure 3 for any network size
// and worm length, printing model and simulator latencies side by side with
// the model's error summarized at the end.  The model side runs through the
// SweepEngine; the simulator points run across the thread pool.
//
//   ./model_vs_sim [--levels=3] [--worm=16] [--points=10]
//                  [--warmup=10000] [--measure=40000] [--seed=1]
#include <cstdio>
#include <iostream>

#include "wormnet.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 3));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const int points = static_cast<int>(args.get_int("points", 10));

  core::FatTreeModel model(
      {.levels = levels, .worm_flits = static_cast<double>(worm)});
  harness::SweepEngine engine;
  const double saturation = model.saturation_load();

  harness::SweepConfig sweep;
  for (int i = 1; i <= points; ++i)
    sweep.loads.push_back(saturation * 0.95 * i / points);
  sweep.worm_flits = worm;
  sweep.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  sweep.warmup_cycles = args.get_int("warmup", 10'000);
  sweep.measure_cycles = args.get_int("measure", 40'000);

  topo::ButterflyFatTree ft(levels);
  std::printf("sweeping %s, %d-flit worms, %d load points up to %.4f"
              " flits/cycle/PE\n",
              ft.name().c_str(), worm, points, sweep.loads.back());
  const auto rows = harness::compare_latency(ft, model, sweep, &engine);
  harness::comparison_table(rows).print(std::cout);
  std::printf("\nmean |model-sim| error over stable points: %.2f%%\n",
              harness::mean_abs_pct_error(rows));
  return 0;
}
