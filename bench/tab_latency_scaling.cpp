// TAB-LAT — "Latencies from the model and simulation were compared for
// networks with up to 1024 processing nodes" (paper §3.6): model accuracy
// across network sizes N = 64, 256, 1024 at fixed fractions of each size's
// saturation load.
//
// Success criterion: mean |model - sim| error stays in single-digit percent
// for every size in the stable region.
//
//   ./tab_latency_scaling [--levels=2,3,4,5] [--worm=16] [--quick]
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const auto levels_list = args.get_int_list("levels", {2, 3, 4, 5});
  const int worm = static_cast<int>(args.get_int("worm", 16));
  harness::SweepConfig base = bench::sweep_defaults(args, worm);
  bench::reject_unknown_flags(args);

  util::Table t({"N", "load(flits/cyc)", "model L", "sim L", "sim sem",
                 "err %", "note"});
  t.set_precision(0, 0);
  t.set_precision(1, 4);

  std::vector<core::FatTreeModel> models;
  models.reserve(levels_list.size());
  for (long levels : levels_list)
    models.emplace_back(core::FatTreeModelOptions{
        .levels = static_cast<int>(levels),
        .worm_flits = static_cast<double>(worm)});

  harness::SweepEngine engine;
  for (const core::FatTreeModel& model : models) {
    topo::ButterflyFatTree ft(model.options().levels);
    harness::SweepConfig sweep = base;
    const double sat = model.saturation_load();
    sweep.loads = {sat * 0.25, sat * 0.5, sat * 0.75, sat * 0.9};
    const auto rows = harness::compare_latency(ft, model, sweep, &engine);
    for (const auto& r : rows) {
      const double err =
          r.sim_latency > 0.0
              ? 100.0 * (r.model_latency - r.sim_latency) / r.sim_latency
              : util::kNaN;
      t.add_row({static_cast<double>(ft.num_processors()), r.load,
                 r.model_latency, r.sim_latency, r.sim_sem, err,
                 r.sim_saturated ? util::Cell{std::string("sim:sat")} : util::Cell{}});
    }
  }
  harness::print_experiment(
      "TAB-LAT: model vs simulation latency across network sizes (" +
          std::to_string(worm) + "-flit worms)",
      t);
  return 0;
}
