// wormnet_bench — one run of one benchmark workload.
//
//   wormnet_bench --workload whatif --seed 1 --seconds 20 --trace 0
//                 [--trace-out FILE]
//
// Prints a record line ("record {...}": gate samples, digest, measured input
// properties, calibration) and, last, one JSON object with the gate tallies
// and the metric values:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": v}}
// perfbench/run.py attaches the units declared in BENCHMARK.json.  Exits 1
// when any gate check failed, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "wormnet_bench: %s\nusage: wormnet_bench --workload "
               "{whatif|saturation|availability|campaign} --seed N "
               "--seconds S --trace {0|1} [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--trace-out") o.trace_path = v;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known |= w == o.workload;
  if (!known) return usage("unknown --workload");
  if (!(o.seconds > 0.0)) return usage("--seconds S > 0 is required");

  // Keep freed memory in the heap: without this, every set-up and every
  // large model clone maps and faults in fresh pages, and the page-fault
  // cost of a busy shared host shows up as run-to-run noise.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const perfbench::Outcome out = perfbench::run_workload(o);

  for (const std::string& why : out.failures)
    std::fprintf(stderr, "gate: %s\n", why.c_str());
  std::string rec = "record {";
  bool first = true;
  for (const auto& [k, v] : out.record) {
    rec += (first ? "\"" : ", \"") + k + "\": " + v;
    first = false;
  }
  std::printf("%s}\n", rec.c_str());

  std::string metrics;
  for (const auto& [k, v] : out.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics += (metrics.empty() ? "\"" : ", \"") + k + "\": " + buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  return out.failed == 0 ? 0 : 1;
}
