// EXT-TRAFFIC — boundary of validity of the paper's assumption 1 (uniform
// destinations), now measured AND modeled: each non-uniform pattern gets a
// pattern-aware analytical column (core::build_traffic_model routes the
// actual destination distribution) next to the uniform closed form and the
// flit-level simulation.
//
// Measured behavior (numbers recorded in EXPERIMENTS.md):
//  * Uniform: model accurate — this column is FIG3 again;
//  * BitComplement: a permutation; no ejection contention, and the
//    randomized up-routing balances the top level perfectly — measured
//    latency runs BELOW the uniform prediction (area-universality at work);
//    the pattern-aware model tracks the direction by routing the actual
//    root-crossing flows;
//  * Transpose: also a (near-)permutation, mildly cheaper than uniform;
//  * Hotspot (10%): the hotspot ejection link saturates far below the
//    uniform prediction.  The uniform model is badly optimistic — the
//    genuine validity boundary of assumption 1 — while the pattern-aware
//    model sees the skewed ejection rate and saturates accordingly.
//
//   ./ext_traffic_patterns [--levels=4] [--worm=16] [--quick]
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace wormnet;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 4));
  const int worm = static_cast<int>(args.get_int("worm", 16));
  const bool quick = args.get_bool("quick", false);
  const long warmup = args.get_int("warmup", quick ? 4'000 : 10'000);
  const long measure = args.get_int("measure", quick ? 10'000 : 30'000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bench::reject_unknown_flags(args);

  topo::ButterflyFatTree ft(levels);
  core::FatTreeModel uniform_model(
      {.levels = levels, .worm_flits = static_cast<double>(worm)});
  const double sat = uniform_model.saturation_load();

  struct PatternCase {
    const char* name;
    traffic::TrafficSpec spec;
  };
  const PatternCase cases[] = {
      {"uniform", traffic::TrafficSpec::uniform()},
      {"bit-compl", traffic::TrafficSpec::bit_complement()},
      {"transpose", traffic::TrafficSpec::transpose()},
      {"hotspot-10%", traffic::TrafficSpec::hotspot(0.1)},
  };

  // One pattern-aware model per case, from the same spec the simulator runs.
  core::SolveOptions opts;
  opts.worm_flits = static_cast<double>(worm);
  std::vector<std::unique_ptr<core::GeneralModel>> models;
  for (const PatternCase& pc : cases) {
    models.push_back(std::make_unique<core::GeneralModel>(
        core::build_traffic_model(ft, pc.spec, opts)));
  }

  std::printf("pattern-aware saturation (flits/cycle/PE) vs uniform closed form %.4f:\n",
              sat);
  for (std::size_t i = 0; i < models.size(); ++i) {
    std::printf("  %-12s %.4f\n", cases[i].name, models[i]->saturation_load());
  }
  std::printf("\n");

  std::vector<std::string> headers{"load(flits/cyc)", "uniform-model L"};
  for (const PatternCase& pc : cases) {
    headers.push_back(std::string("model ") + pc.name);
    headers.push_back(std::string("sim ") + pc.name);
  }
  util::Table t(headers);
  t.set_precision(0, 4);

  // All (load, pattern) simulation points as ONE SimEngine campaign over a
  // single shared SimNetwork of the fat-tree.
  const double fracs[] = {0.2, 0.4, 0.6, 0.8};
  std::vector<harness::SimCell> cells;
  for (double frac : fracs) {
    for (const PatternCase& pc : cases) {
      harness::SimCell cell;
      cell.topology = &ft;
      cell.cfg.load_flits = sat * frac;
      cell.cfg.worm_flits = worm;
      cell.cfg.traffic = pc.spec;
      cell.cfg.seed = seed;
      cell.cfg.warmup_cycles = warmup;
      cell.cfg.measure_cycles = measure;
      cell.cfg.max_cycles = 15 * measure;
      cell.cfg.channel_stats = false;
      cells.push_back(std::move(cell));
    }
  }
  harness::SimEngine sims;
  const std::vector<harness::SimCellResult> outs = sims.run_cells(cells);

  const util::Cell sat_cell{std::string("sat")};
  for (std::size_t f = 0; f < std::size(fracs); ++f) {
    const double load = sat * fracs[f];
    std::vector<util::Cell> row{load, uniform_model.evaluate_load(load).latency};
    for (std::size_t i = 0; i < models.size(); ++i) {
      const core::LatencyEstimate est = models[i]->evaluate_load(load);
      if (est.stable) {
        row.push_back(util::Cell{est.latency});
      } else {
        row.push_back(sat_cell);
      }
      const sim::SimResult& r = outs[f * models.size() + i].runs.front();
      if (r.saturated) {
        row.push_back(sat_cell);
      } else {
        row.push_back(util::Cell{r.latency.mean()});
      }
    }
    t.add_row(std::move(row));
  }
  harness::print_experiment(
      "EXT-TRAFFIC: uniform vs pattern-aware model vs simulation, N=" +
          std::to_string(static_cast<long>(util::ipow(4, levels))) +
          " (loads are fractions of the uniform saturation " + std::to_string(sat) +
          ")",
      t);
  std::printf("(assumption 1 bounds well-mixed traffic only: permutations run BELOW\n"
              " the uniform prediction, hotspots saturate far above it — the\n"
              " pattern-aware columns route the actual destination distribution and\n"
              " recover both effects; see EXPERIMENTS.md for the recorded numbers)\n");
  return 0;
}
