// TAB-THR — "The model produced accurate predictions on latency AND
// throughput for all cases under study" (paper §3.6): the Eq. 26 saturation
// load against the simulator's delivered throughput under overload
// (closed-loop, sources always backlogged), for every (N, worm length).
//
// Success criteria:
//  * model/sim capacity ratio within ~15% everywhere;
//  * the model's exact worm-length scale-invariance shows as a constant
//    column per N; the simulator's near-invariance confirms it.
//
//   ./tab_throughput_saturation [--levels=2,3,4,5] [--worms=16,32,64] [--quick]
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const auto levels_list = args.get_int_list("levels", {2, 3, 4, 5});
  const auto worms = args.get_int_list("worms", {16, 32, 64});
  const bool quick = args.get_bool("quick", false);
  const long warmup = args.get_int("warmup", quick ? 4'000 : 12'000);
  const long measure = args.get_int("measure", quick ? 10'000 : 30'000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::reject_unknown_flags(args);

  util::Table t({"N", "worm(flits)", "model sat (flits/cyc/PE)",
                 "sim overload throughput", "model/sim"});
  t.set_precision(0, 0);
  t.set_precision(1, 0);
  t.set_precision(2, 5);
  t.set_precision(3, 5);
  t.set_precision(4, 3);

  // One model per (N, worm) cell; each one's saturation is searched once,
  // when its row is printed.
  std::vector<core::FatTreeModel> models;
  models.reserve(levels_list.size() * worms.size());
  for (long levels : levels_list)
    for (long worm : worms)
      models.emplace_back(core::FatTreeModelOptions{
          .levels = static_cast<int>(levels),
          .worm_flits = static_cast<double>(worm)});

  // One topology per N; the three worm lengths of each N share its
  // SimNetwork inside the campaign.
  std::vector<topo::ButterflyFatTree> topos;
  topos.reserve(levels_list.size());
  for (long levels : levels_list) topos.emplace_back(static_cast<int>(levels));

  // The whole table is ONE SimEngine campaign: every (N, worm) overload run
  // is an independent cell fanned across the pool.
  std::vector<harness::SimCell> cells;
  cells.reserve(models.size());
  for (const core::FatTreeModel& model : models) {
    harness::SimCell cell;
    for (std::size_t i = 0; i < levels_list.size(); ++i)
      if (levels_list[i] == model.options().levels) cell.topology = &topos[i];
    cell.cfg.arrivals = sim::ArrivalProcess::Overload;
    cell.cfg.worm_flits = static_cast<int>(model.worm_flits());
    cell.cfg.seed = seed;
    cell.cfg.warmup_cycles = warmup;
    cell.cfg.measure_cycles = measure;
    cell.cfg.channel_stats = false;
    cells.push_back(std::move(cell));
  }
  harness::SimEngine sims;
  const std::vector<harness::SimCellResult> results = sims.run_cells(cells);

  for (std::size_t i = 0; i < models.size(); ++i) {
    const core::FatTreeModel& model = models[i];
    const double model_sat = model.saturation_load();
    const double sim_sat = results[i].runs.front().throughput_flits_per_pe;
    const double procs =
        static_cast<double>(cells[i].topology->num_processors());
    const double ratio = sim_sat > 0.0 ? model_sat / sim_sat : util::kNaN;
    t.add_row({procs, model.worm_flits(), model_sat, sim_sat, ratio});
  }
  harness::print_experiment(
      "TAB-THR: saturation throughput, model (Eq. 26) vs simulator overload", t);
  return 0;
}
