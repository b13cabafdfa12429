// traffic_patterns — the traffic:: layer end to end.
//
// One traffic::TrafficSpec drives BOTH engines: core::build_traffic_model
// routes its exact pair weights into a per-channel analytical model, and the
// simulator's TrafficSource samples destinations from the same object — so
// "what the model assumes" and "what the simulator does" cannot drift.
//
// The program:
//  1. prints the pattern catalog's analytical saturation throughput on a
//     64-PE butterfly fat-tree (permutations run past the uniform number,
//     hotspots collapse it);
//  2. sweeps a hotspot-fraction axis through harness::SweepEngine's
//     sweep_family — the pattern-sweep entry point;
//  3. builds a custom client/server TrafficMatrix, models it, and
//     cross-checks one operating point against the flit-level simulator.
#include <cstdio>
#include <iostream>
#include <memory>

#include "wormnet.hpp"

int main() {
  using namespace wormnet;
  const double sf = 16.0;
  const int levels = 3;
  topo::ButterflyFatTree ft(levels);
  const int procs = ft.num_processors();

  core::SolveOptions opts;
  opts.worm_flits = sf;
  harness::SweepEngine engine;

  // --- 1. The catalog under the analytical model. ------------------------
  std::printf("pattern catalog on %s (worm %.0f flits)\n", ft.name().c_str(), sf);
  const traffic::TrafficSpec catalog[] = {
      traffic::TrafficSpec::uniform(),
      traffic::TrafficSpec::nearest_neighbor(0.5),
      traffic::TrafficSpec::bit_complement(),
      traffic::TrafficSpec::transpose(),
      traffic::TrafficSpec::hotspot(0.05),
      traffic::TrafficSpec::hotspot(0.20),
  };
  util::Table cat({"pattern", "D-bar", "sat load (flits/cyc/PE)", "L at 50% sat"});
  std::vector<std::unique_ptr<core::GeneralModel>> models;
  for (const traffic::TrafficSpec& spec : catalog) {
    models.push_back(std::make_unique<core::GeneralModel>(
        core::build_traffic_model(ft, spec, opts)));
    const core::GeneralModel& net = *models.back();
    const double sat = net.saturation_rate();
    cat.add_row({spec.name(), net.mean_distance, sat * sf,
                 net.evaluate(sat * 0.5).latency});
  }
  cat.print(std::cout);

  // --- 2. A hotspot-fraction axis through sweep_family. ------------------
  std::printf("\nhotspot-fraction axis (latency at fractions of each member's own"
              " saturation)\n");
  const std::vector<double> fractions{0.5, 0.8};
  const std::vector<harness::FamilyMember> family = engine.sweep_family(
      [&](double f) {
        return std::make_unique<core::GeneralModel>(core::build_traffic_model(
            ft, traffic::TrafficSpec::hotspot(f), opts));
      },
      {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}, fractions);
  util::Table axis({"hotspot f", "sat load", "L at 50%", "L at 80%"});
  for (const harness::FamilyMember& member : family) {
    axis.add_row({member.parameter, member.saturation_rate * sf,
                  member.points[0].est.latency, member.points[1].est.latency});
  }
  axis.print(std::cout);

  // --- 3. A custom TrafficMatrix: 4 servers, 60 clients. -----------------
  // Clients send 70% of their messages to a uniformly chosen server and 30%
  // uniformly anywhere; servers answer uniformly to clients.
  const int servers = 4;
  traffic::TrafficMatrix m(procs);
  for (int s = 0; s < procs; ++s) {
    for (int d = 0; d < procs; ++d) {
      if (d == s) continue;
      double w = 0.3 / (procs - 1);
      if (s >= servers) {
        if (d < servers) w += 0.7 / servers;
      } else {
        w = d >= servers ? 1.0 / (procs - servers) : 0.0;
      }
      if (w > 0.0) m.set(s, d, w);
    }
  }
  m.normalize_rows();
  const traffic::TrafficSpec spec = traffic::TrafficSpec::matrix(m);
  const core::GeneralModel net = core::build_traffic_model(ft, spec, opts);
  const double sat = net.saturation_rate();
  std::printf("\nclient/server matrix: D-bar %.3f, saturation %.4f flits/cycle/PE\n",
              net.mean_distance, sat * sf);

  sim::SimConfig cfg;
  cfg.load_flits = sat * 0.6 * sf;
  cfg.worm_flits = static_cast<int>(sf);
  cfg.traffic = spec;  // the SAME object the model routed
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 30'000;
  const sim::SimResult r = sim::simulate(ft, cfg);
  const core::LatencyEstimate est = net.evaluate(sat * 0.6);
  std::printf("at 60%% of that: model %.2f cycles, simulator %.2f cycles\n",
              est.latency, r.latency.mean());
  return 0;
}
