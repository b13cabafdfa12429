// wormnet/harness/query_engine.hpp
//
// Resident what-if query engine: the product form of the paper's value
// proposition.  The analytical model answers in microseconds what simulation
// answers in minutes — so keep the models RESIDENT and let an operator (or a
// design-space search, PAPERS.md's Solnushkin use case) ask thousands of
// questions against them: "what if the hotspot moves?", "load +20%?",
// "lanes 2 → 4?", "arrivals turn bursty?".
//
// Each WhatIfQuery is a set of DELTAS against a resident baseline
// (topology, base TrafficSpec) plus the metric asked for.  The engine plans
// every query as cheapest-applicable-delta-else-rebuild:
//  * pattern delta  → core::RetunableTrafficModel::retune_traffic — signed
//    delta propagation over only the destinations whose pair weights
//    changed (or one pass per orbit when the new spec keeps the topology's
//    symmetry); falls back to a cold rebuild when the delta touches most of
//    the matrix, and says so;
//  * lane delta     → set_uniform_lanes, O(channels), bitwise-exact;
//  * load delta     → scale_injection_rates, O(channels);
//  * buffer delta   → set_uniform_buffers, O(channels);
//  * bandwidth delta→ scale_bandwidths, O(channels);
//  * arrival delta  → set_injection_process, O(channels);
//  * fault delta    → core::RetunableTrafficModel::retune_faults — a cold
//    rebuild of the variant on its topo::FaultedTopology view (a fault
//    re-routes every destination column of a fat-tree, so a column delta
//    would cost more); metered as Rebuild.  The resident baseline is never
//    touched.  One failed link under the resident's own spec, on a
//    topology whose symmetry commutes with faults
//    (Topology::symmetry_commutes_with_faults), is keyed by its LINK ORBIT:
//    the first member of each orbit is rebuilt and every other member is
//    served its answer as Memoized (within a few ulps of its own cold
//    build).  Other fault sets, and ClassBreakdown, key by fault digest.
// Queries sharing the same delta set share ONE prepared model variant;
// repeated (variant, metric, λ₀) questions — within a batch or across
// batches — are served from a result cache and reported as Memoized.
//
// Batches fan out on a util::ThreadPool.  Every evaluation is a pure
// function of (model content, λ₀), so a parallel batch is BITWISE-identical
// to a serial one (tested in test_query_engine.cpp); the engine only
// reorders work, never arithmetic.  The result cache is the engine's one
// memo layer: a fresh question runs straight on its variant model, so an
// answer is bitwise what that model's evaluate()/saturation_rate() give.
//
// Observability: every answer carries a QueryCost class (Memoized /
// Reevaluate / Retune / Rebuild) and the core::RetuneReport of its
// variant's preparation, so a service can meter exactly how much work each
// question bought.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/traffic_model.hpp"
#include "topo/fault.hpp"
#include "topo/topology.hpp"
#include "traffic/traffic_spec.hpp"

namespace wormnet::obs {
class Registry;
}

namespace wormnet::harness {

/// The observable a WhatIfQuery asks for.
enum class QueryMetric {
  Latency,         ///< full LatencyEstimate at lambda0 (Eq. 2/25)
  Saturation,      ///< saturation injection rate λ₀* (Eq. 26)
  ClassBreakdown,  ///< per-channel-class load/wait detail at lambda0
};

/// How the engine served a query — the retune-vs-rebuild cost class.
enum class QueryCost {
  /// Answered from the result cache (a duplicate within the batch, or the
  /// same question asked in an earlier batch).  No model work at all.
  Memoized,
  /// The resident model was reused as-is or reached by O(channels) tunes
  /// only (lanes / load / arrival); the cost is one solve.
  Reevaluate,
  /// The pattern delta was served by delta propagation — O(affected
  /// destinations) passes, or the collapsed orbit path (see the attached
  /// RetuneReport) — plus one solve.
  Retune,
  /// The variant was cold-rebuilt: a fault scenario (one per link orbit
  /// for single-link failures), a pattern delta that touched too much of
  /// the matrix, or a collapsed resident leaving its symmetry.  The worst
  /// case, metered so callers see it.
  Rebuild,
};

/// One operator question: deltas relative to the resident baseline (leave an
/// axis defaulted to keep the baseline's value) plus the metric wanted.
struct WhatIfQuery {
  /// Replace the traffic pattern (absent = keep the baseline spec).
  std::optional<traffic::TrafficSpec> traffic;
  /// Scale offered load by this factor (1.0 = unchanged; must be > 0).
  double load_scale = 1.0;
  /// Set every channel to this many virtual channels (0 = keep baseline).
  int lanes = 0;
  /// Set every channel's per-lane flit-buffer depth (0 = keep baseline;
  /// util::kInfiniteBufferDepth = the paper's unbounded buffering).
  int buffer_depth = 0;
  /// Scale every channel's bandwidth by this factor (1.0 = unchanged; must
  /// be > 0).  Applied on top of the baseline topology's own per-channel
  /// bandwidths, so a tapered fat-tree keeps its taper shape.
  double bandwidth_scale = 1.0;
  /// Retune to this arrival process (absent = keep the baseline process).
  std::optional<arrivals::ArrivalSpec> arrival;
  /// Evaluate under this fault set (null or empty = healthy baseline).  The
  /// set must have been built against the resident's topology.  Keyed by its
  /// order-insensitive content digest, so two scenarios failing the same
  /// links share one prepared variant — or, for one failed link under the
  /// resident's spec, by its link orbit (see the file comment).
  std::shared_ptr<const topo::FaultSet> faults;

  QueryMetric metric = QueryMetric::Latency;
  /// Injection rate λ₀ for Latency / ClassBreakdown (ignored by Saturation,
  /// except that a Bernoulli arrival delta reads it for its rate-dependent
  /// SCV, mirroring set_injection_process).
  double lambda0 = 0.0;
};

/// One row of a ClassBreakdown answer (one per channel class).
struct ClassLoadRow {
  int class_id = 0;
  std::string label;           ///< builder label when one exists, else empty
  double rate = 0.0;           ///< offered per-link rate at λ₀, messages/cycle
  double utilization = 0.0;    ///< ρ of the class's output bundle
  double wait = 0.0;           ///< W̄ of that bundle, cycles
  double service_time = 0.0;   ///< x̄ of the class, cycles
  double ca2 = 1.0;            ///< arrival SCV the wait was evaluated at
};

/// The answer to one WhatIfQuery.  Only the field matching `metric` is
/// meaningful (ClassBreakdown also fills est.stable).
struct QueryResult {
  QueryMetric metric = QueryMetric::Latency;
  core::LatencyEstimate est;            ///< Latency
  double saturation_rate = 0.0;         ///< Saturation
  std::vector<ClassLoadRow> breakdown;  ///< ClassBreakdown
  QueryCost cost = QueryCost::Reevaluate;
  /// What preparing this query's model variant did (zeroed for Memoized
  /// answers and for queries with no pattern delta).
  core::RetuneReport retune;
};

/// One availability scenario's outcome, ranked into an AvailabilityReport.
struct AvailabilityRow {
  std::string label;  ///< caller-given, or derived from the failed links
  std::shared_ptr<const topo::FaultSet> faults;
  core::LatencyEstimate est;  ///< at the report's λ₀, under the failure
  QueryCost cost = QueryCost::Reevaluate;  ///< how the engine served it
};

/// An N−1 / N−k availability what-if: the healthy baseline plus every
/// scenario's degraded estimate, ranked worst-first — most unroutable demand
/// first, then highest latency (a saturated/infinite row outranks any finite
/// one; the SolveStatus contract keeps NaN out of the ordering).  Ties keep
/// scenario enumeration order, so the ranking is deterministic.
struct AvailabilityReport {
  double lambda0 = 0.0;
  core::LatencyEstimate baseline;     ///< the healthy resident at λ₀
  std::vector<AvailabilityRow> rows;  ///< worst failure first
  int scenarios_ok = 0;  ///< rows still status Ok (full service under failure)
};

/// Resident what-if query engine.  Not thread-safe for concurrent run calls
/// (the batch entry points themselves fan out internally).
class QueryEngine {
 public:
  struct Options {
    unsigned threads = 0;   ///< batch worker count; 0 = hardware concurrency
    bool parallel = true;   ///< false: plan and evaluate serially, in order
    /// false: no result cache and no in-batch dedup — every query pays its
    /// full cost (benchmarking the uncached path).
    bool memoize = true;
    core::SolveOptions solve;          ///< worm length, ablation, solver knobs
    core::TrafficBuildOptions build;   ///< residents' collapse/thread policy
  };

  QueryEngine() : QueryEngine(Options{}) {}
  explicit QueryEngine(Options opts);
  /// Convenience: construct and immediately add resident 0.
  QueryEngine(const topo::Topology& topo, const traffic::TrafficSpec& base_spec)
      : QueryEngine(topo, base_spec, Options{}) {}
  QueryEngine(const topo::Topology& topo, const traffic::TrafficSpec& base_spec,
              Options opts);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Get-or-create the resident model for (topology, base spec); returns its
  /// id.  Asking again with the same topology object and an equivalent spec
  /// returns the existing resident (models stay warm across sessions).  The
  /// topology must outlive the engine.
  int resident(const topo::Topology& topo, const traffic::TrafficSpec& base_spec);
  std::size_t num_residents() const;
  /// The resident baseline (for inspection; never mutated by queries).
  const core::RetunableTrafficModel& resident_model(int id) const;

  /// Answer a batch against resident `resident_id`; one result per query, in
  /// input order, bitwise-independent of threads/parallel.
  std::vector<QueryResult> run_batch(int resident_id,
                                     const std::vector<WhatIfQuery>& queries);
  /// Batch against resident 0.
  std::vector<QueryResult> run_batch(const std::vector<WhatIfQuery>& queries);
  /// Single query (resident 0 / explicit resident).
  QueryResult run(const WhatIfQuery& query);
  QueryResult run(int resident_id, const WhatIfQuery& query);

  /// N−1 availability sweep: one scenario per failable (switch-to-switch)
  /// undirected link of the resident's topology, each answered as a Latency
  /// query at λ₀ through the normal batch path — variants dedup, answers
  /// memoize, and each new link orbit is one cold build on its first
  /// member's fault view (QueryCost::Rebuild) that leaves the resident
  /// untouched; the orbit's other members are Memoized with that answer,
  /// under their own label and FaultSet.  Where no fault-commuting symmetry
  /// is declared (a mesh, a pinned hypercube), every link is its own orbit.
  AvailabilityReport availability_n_minus_1(int resident_id, double lambda0);
  /// General N−k form: the caller supplies the scenarios (each a FaultSet
  /// built against the resident's topology, failing any number of links or
  /// switches) and optional labels (empty = derived from the failed links).
  AvailabilityReport availability_scenarios(
      int resident_id, double lambda0,
      std::vector<std::shared_ptr<const topo::FaultSet>> scenarios,
      std::vector<std::string> labels = {});

  // Cost observability (tests; service metering).
  std::uint64_t queries_served() const;
  std::uint64_t served_memoized() const;
  std::uint64_t served_reevaluate() const;
  std::uint64_t served_retune() const;
  std::uint64_t served_rebuild() const;
  /// Distinct model variants prepared across all batches.
  std::uint64_t variants_prepared() const;
  /// Always 0: the engine keeps no per-λ cache.  Kept only because
  /// perfbench/ reads them; drop them when perfbench/ next changes.
  std::uint64_t sweep_cache_hits() const;
  std::uint64_t sweep_cache_misses() const;
  /// Result-cache entries currently held (answers memoized across batches).
  std::size_t answer_cache_size() const;
  /// Wall-clock seconds spent inside run_batch across this engine's
  /// lifetime (one steady_clock pair per batch — negligible, and results
  /// are unaffected); queries_served() / batch_seconds() is the engine's
  /// measured queries/sec.
  double batch_seconds() const;
  /// Drop the result cache (residents stay warm).
  void clear_cache();

  /// Publish the cost-class counters (as a labeled gauge family — the
  /// cost-class histogram), answer-cache size, resident count and measured
  /// queries/sec into `reg` under labels "engine=<label>" (one-shot;
  /// idempotent).
  void publish_metrics(obs::Registry& reg, std::string_view label) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wormnet::harness
