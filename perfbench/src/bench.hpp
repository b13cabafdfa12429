// perfbench/src/bench.hpp — shared machinery of the wormnet end-to-end
// benchmark: seeded input generation, answer digests, the cold-path parity
// gate, the span recorder behind the traced run, and the result record.
//
// The benchmark drives only the library's public entry points (topo, core,
// sim, harness, obs).  Everything here is the benchmark's own code: it never
// changes what the library computes, only what is asked and what is checked.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wormnet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, in ms.  Timed work runs serially on the
/// calling thread, so this is its host time without the time a shared
/// host's hypervisor or neighbours take the core away (steal).
double thread_cpu_ms();

/// splitmix64 — the benchmark's only source of generated inputs.  Defined
/// bit-for-bit here (no std:: distributions), so a seed names the same
/// inputs on every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                   ///< [0, 1)
  double uniform(double lo, double hi);
  int below(int n);                   ///< [0, n)

 private:
  std::uint64_t state_;
};

/// Stream seed for (benchmark seed, purpose, index).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index = 0);

/// Order-sensitive digest over exact bit patterns of every answer field.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  void add(const wormnet::core::LatencyEstimate& est);
  void add(const wormnet::harness::QueryResult& r);
  void add(const wormnet::harness::AvailabilityReport& rep);
  void add(const wormnet::sim::SimResult& r);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0x77306d6e6574ULL;
};

/// The engine's parity contract: 1e-9 relative; non-finite values must
/// match exactly (both +inf, etc.).
bool close_rel(double a, double b, double rel = 1e-9);

/// Recompute `q` cold — build_traffic_model (on a FaultedTopology when the
/// query carries faults) of the query's spec, then its tunes in the
/// engine's order — and compare with the engine's answer `r`; returns ""
/// on agreement, else the reason.
std::string check_answer(const wormnet::topo::Topology& base,
                         const wormnet::traffic::TrafficSpec& base_spec,
                         const wormnet::harness::WhatIfQuery& q,
                         const wormnet::harness::QueryResult& r);

/// One replication's accounting: completed, not truncated, and every tagged
/// message generated in the window was either delivered or dropped.
std::string check_replication(const wormnet::sim::SimResult& r);

/// Span recorder for the traced run.  Spans carry a layer, a name, start
/// and end, their parent span and the id of the engine call they belong to;
/// they are kept in memory and handed to an obs::TraceLog as they close
/// (category = layer, tid = call id, so one call's spans share a track and
/// nest by time), which writes the Chrome JSON at the end.  Inert (no clock
/// read) when disabled.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    int parent = -1;
    int call = -1;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// RAII span; parent = the innermost open span.
  class Scope {
   public:
    Scope(Tracer& t, const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double elapsed_ms() const;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  /// Engine-call id stamped on spans opened from now on (-1 = set-up).
  void set_call(int id) { call_ = id; }

  /// Which spans a query covers: the set-up's (call id -1) or the engine
  /// calls'.
  enum class Phase { SetUp, Calls };

  const std::vector<Span>& spans() const { return spans_; }
  /// Mean duration (ms), count and total duration (ms) of the closed spans
  /// named `name` in `phase`.
  double mean_ms(std::string_view name, Phase phase) const;
  long count(std::string_view name, Phase phase) const;
  double total_ms(std::string_view name, Phase phase) const;
  /// Self time per layer over the engine-call spans (set-up excluded):
  /// each span's duration minus its children's.
  std::map<std::string, double> self_ms_by_layer() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  static bool in(const Span& s, Phase phase) {
    return (s.call >= 0) == (phase == Phase::Calls);
  }

  bool on_;
  int call_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  wormnet::obs::TraceLog log_;
  Clock::time_point epoch_ = Clock::now();
};

/// What one run hands back to main(): the metrics named in BENCHMARK.json,
/// the gate's tallies, and the input/host record.
struct Outcome {
  std::map<std::string, double> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few reasons, for the log
  /// Measured input properties and extra end-to-end figures, printed as the
  /// record line (string or number values, already JSON-encoded).
  std::map<std::string, std::string> record;

  void fail(std::string reason);
  void note(const std::string& key, double v);
  void note(const std::string& key, const std::string& v);
};

/// Deliberate defects the self-test injects to prove the gate is live.
enum class Inject {
  None,
  PerturbAnswer,        ///< scale one sampled answer by 1 + 1e-6
  DigestMismatch,       ///< fold a stray value into the threads=1 digest
  TruncateReplication,  ///< give one campaign cell a 100-cycle budget
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< run length; required (no default)
  bool trace = false;
  bool minimal = false;       ///< self-test size: tiny fabrics, few calls
  std::string trace_path;     ///< Chrome JSON output of the traced run
  Inject inject = Inject::None;
};

/// Run one workload end to end (set-up, timed loop or traced run, gate).
Outcome run_workload(const Options& opts);

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

// Small statistics helpers.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);  ///< nearest-rank, p in [0,100]

/// Host-speed probe: fixed work no repository change can move (100000
/// inserts and lookups in a 2 MiB open-addressed table, then a sort of
/// 32768 doubles; its memory is allocated once), in CPU ms.
double speed_probe_ms();
/// The probe's time on the reference host: its median on a shared 4-vCPU
/// Xeon host, so reported times read about as that host's CPU times.
inline constexpr double kProbeRefMs = 3.0;
/// Per probe j of a run, the factor that takes a time measured after it to
/// the reference host's speed: kProbeRefMs / the median of probes j-1..j+1.
std::vector<double> probe_scale(const std::vector<double>& probe_ms);
double peak_rss_mb();

}  // namespace perfbench
