// perfbench self-test: every workload at minimum size passes its own gate
// with a digest that repeats across runs, and the gate is live — a perturbed
// answer, a digest mismatch and a truncated replication are each rejected.
//
//   ctest --test-dir .bench_build/perfbench   (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

perfbench::Outcome run(const std::string& workload, bool trace,
                       perfbench::Inject inject = perfbench::Inject::None) {
  perfbench::Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.2;
  o.trace = trace;
  o.minimal = true;
  o.inject = inject;
  return perfbench::run_workload(o);
}

bool mentions(const perfbench::Outcome& out, const std::string& needle) {
  for (const std::string& why : out.failures)
    if (why.find(needle) != std::string::npos) return true;
  return false;
}

}  // namespace

int main() {
  using perfbench::Inject;
  {
    // A host at half the reference speed from the third probe to the sixth:
    // times taken there are halved; the median of three probes ignores one
    // disturbed probe (the 9x); the ends use the probes they have.
    const double r = perfbench::kProbeRefMs;
    const std::vector<double> s = perfbench::probe_scale(
        {r, r, 2 * r, 2 * r, 2 * r, 2 * r, 9 * r, r});
    expect(s == std::vector<double>({1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0}),
           "times are scaled by the probes around them");
  }
  for (const std::string& w : perfbench::workload_names()) {
    const perfbench::Outcome a = run(w, false);
    const perfbench::Outcome b = run(w, false);
    expect(a.failed == 0 && a.attempted > 0, w + ": gate passes");
    expect(a.record.count("answer_digest") &&
               a.record.at("answer_digest") == b.record.at("answer_digest"),
           w + ": answer digest repeats across runs of one seed");
    const perfbench::Outcome t = run(w, true);
    for (const std::string& why : t.failures) std::printf("      %s\n", why.c_str());
    const char* layer_metric = w == "campaign"
                                   ? "sim.cycles_per_s_thread"
                                   : "core.saturation_solves_per_query";
    expect(t.failed == 0 && t.metrics.count("share.core") &&
               t.metrics.count(layer_metric),
           w + ": traced run passes and reports per-layer metrics");
    if (w == "campaign") {
      // The replay's cycle rate over the traced calls' Simulator::run time
      // must account for exactly the cycles the engine simulated in them.
      const double rate = t.metrics.at("sim.cycles_per_s_thread");
      const double run_s = std::stod(t.record.at("sim_run_total_ms")) * 1e-3;
      const double cycles = std::stod(t.record.at("traced_engine_cycles"));
      expect(cycles > 0 && std::fabs(rate * run_s - cycles) <= 1e-6 * cycles,
             w + ": sim.cycles_per_s_thread x sim.run time = the traced "
                 "calls' simulated cycles");
    }
  }

  const perfbench::Outcome perturbed = run("saturation", false, Inject::PerturbAnswer);
  expect(perturbed.failed > 0 && mentions(perturbed, "cold recompute"),
         "a perturbed answer is rejected");
  const perfbench::Outcome perturbed_avail =
      run("availability", false, Inject::PerturbAnswer);
  expect(perturbed_avail.failed > 0 && mentions(perturbed_avail, "cold recompute"),
         "a perturbed availability answer is rejected");
  const perfbench::Outcome mismatch = run("whatif", false, Inject::DigestMismatch);
  expect(mismatch.failed > 0 && mentions(mismatch, "digest differs"),
         "a digest mismatch is rejected");
  const perfbench::Outcome sim_mismatch =
      run("campaign", false, Inject::DigestMismatch);
  expect(sim_mismatch.failed > 0 && mentions(sim_mismatch, "digest differs"),
         "a SimResult digest mismatch is rejected");
  const perfbench::Outcome truncated =
      run("campaign", false, Inject::TruncateReplication);
  expect(truncated.failed > 0 && mentions(truncated, "truncated"),
         "a truncated replication is rejected");

  std::printf("%s (%d failure%s)\n", failures ? "FAILED" : "PASSED", failures,
              failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
