// scale_demo — analytical answers for 100k–1M-endpoint fabrics in seconds.
//
// The dense traffic-model builder is exact but O(N²·hops); above ~10k
// processors a single build takes minutes and the per-channel model stops
// fitting in cache.  The symmetry-collapsed path runs one route pass per
// destination ORBIT and folds the network to O(classes) channel classes
// (2·levels for the uniform fat-tree), so a 1,048,576-processor fabric
// builds and solves in seconds with flat model memory.
//
//   ./scale_demo [--max-levels=10] [--dense-levels=5]
//
// Prints one row per fat-tree size: processors, quotient classes, build and
// solve wall time, saturation rate and mid-load latency, plus peak RSS.  At
// small sizes a dense reference build runs alongside to show both the cost
// crossover and the machine-precision agreement of the two paths.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "wormnet.hpp"

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is kilobytes on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormnet;

  const util::Args args(argc, argv);
  const int max_levels = static_cast<int>(args.get_int("max-levels", 10));
  const int dense_levels = static_cast<int>(args.get_int("dense-levels", 5));
  harness::reject_unknown_flags(args);

  util::Table table({"levels", "procs", "classes", "collapsed build ms",
                     "dense build ms", "solve ms", "saturation", "latency@50%",
                     "dense latency@50%", "peak RSS MB"});
  table.set_precision(3, 1);
  table.set_precision(4, 1);
  table.set_precision(5, 2);
  table.set_precision(6, 6);
  table.set_precision(7, 3);
  table.set_precision(8, 3);
  table.set_precision(9, 1);

  const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  for (int levels = 4; levels <= max_levels; ++levels) {
    const topo::ButterflyFatTree ft(levels);

    const double t0 = now_ms();
    const core::GeneralModel net = core::build_traffic_model(
        ft, spec, {}, {.collapse = core::CollapseMode::Auto});
    const double build_ms = now_ms() - t0;

    const double t1 = now_ms();
    const double sat = core::model_saturation_rate(net, net.opts);
    const core::LatencyEstimate mid = net.evaluate(0.5 * sat);
    const double solve_ms = now_ms() - t1;

    util::Cell dense_ms = std::monostate{};
    util::Cell dense_lat = std::monostate{};
    if (levels <= dense_levels) {
      const double t2 = now_ms();
      const core::GeneralModel dense = core::build_traffic_model(ft, spec);
      dense_ms = now_ms() - t2;
      dense_lat = dense.evaluate(0.5 * sat).latency;
    }

    table.add_row({static_cast<double>(levels),
                   static_cast<double>(ft.num_processors()),
                   static_cast<double>(net.graph.size()), build_ms, dense_ms,
                   solve_ms, sat, mid.latency, dense_lat, peak_rss_mb()});
    table.set_precision(0, 0);
    table.set_precision(1, 0);
    table.set_precision(2, 0);
  }

  std::cout << "Uniform butterfly fat-tree, symmetry-collapsed vs dense\n";
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
