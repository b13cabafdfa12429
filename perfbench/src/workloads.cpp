// perfbench/src/workloads.cpp — the four workloads and run_workload(), which
// times them.
//
// Every workload is a closed loop: one caller issues engine call i + 1 when
// call i returns.  Call i's inputs are a pure function of (--seed, i), so a
// run's first calls — the digest prefix — repeat exactly across runs, while
// --seconds only decides how many calls follow.
//
//   whatif       whatif_service's operator session against a collapsed N = 256
//                fat-tree resident: run_batch calls (plan/dedup/cache, orbit
//                retune, single solves share the time).
//   saturation   design search on a dense 16x16 mesh: batches of distinct
//                Saturation queries (solve + Eq. 26 root search dominate,
//                the answer cache is bypassed by construction).
//   availability N-1 / seeded N-2 sweeps on a dense fat-tree resident at a
//                fresh load per call (retune_faults and the fault view).
//   campaign     model-vs-sim SimEngine::run_cells calls over the
//                conformance suite's topology x pattern x lanes cells
//                (simulator cycles and the engine fan-out).
//
// The untraced run times each call of the serial (threads = 1) engine on
// the calling thread's CPU clock.  The traced run (--trace 1) issues each
// call three times under spans — the serial engine, the same engine at
// nproc threads, and the benchmark's own replay of the call's non-memoized
// work through core / topo / sim — and derives the per-layer metrics from
// those spans.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace wormnet;
using harness::QueryCost;
using harness::QueryMetric;
using harness::QueryResult;
using harness::WhatIfQuery;

namespace {

// Stream purposes for stream_seed.
enum Purpose : std::uint64_t {
  kCallInputs = 1,
  kSample = 2,
  kSimSeed = 3,
  kSessionPhase = 4,
  kOffset = 5,
};

/// Seeded start of a low-discrepancy sequence: the run's inputs come from
/// the seed, but every seed spreads them as evenly over their range, so the
/// mix of call costs, and the metrics, do not hinge on the draw.
double seeded_offset(std::uint64_t seed, std::uint64_t index) {
  return Rng(stream_seed(seed, kOffset, index)).uniform();
}

/// Term i of the golden-ratio sequence from `offset`, in [0, 1).
double golden(double offset, int i) {
  const double x = offset + 0.6180339887498949 * static_cast<double>(i);
  return x - std::floor(x);
}

/// Worker count of the parallel engines: every core.
unsigned engine_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Counts over the traced run's counted prefix (exact per seed).
struct Counters {
  long queries = 0;
  long cost[4] = {0, 0, 0, 0};
  long solves = 0;
  long saturation_queries = 0;
  long saturation_solves = 0;
  long retune_traffic_passes = 0;
  long retune_faults_passes = 0;
  long rebuilds = 0;
  double variants_prepared = 0.0;
  double memo_hit_ratio = 0.0;
  double sweep_hit_ratio = 0.0;
};

/// Per-call timings of the traced run.
struct TracedCall {
  double parallel_ms = 0.0;
  double serial_ms = 0.0;
  double replay_ms = 0.0;
  double straggler = 0.0;  ///< campaign: slowest / mean replication time
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Time the constructor spent in set-up sections (topology, resident
  /// and model builds; engine thread pools are not set-up work).
  double setup_ms() const { return setup_ms_; }
  /// Drop engine caches and per-run state: the next call is call 0 again.
  virtual void reset() = 0;
  /// Untraced engine call i; returns the operations it completed.
  virtual int call(int i) = 0;
  /// Traced call i (see the file comment); `counted` = inside the prefix
  /// whose counts are reported.  Replay mismatches are gate failures.
  virtual int traced_call(int i, Tracer& tr, bool counted, TracedCall& t,
                          Outcome& out) = 0;
  /// The correctness gate and the answer digest, after the calls.
  virtual void verify(Outcome& out) = 0;
  /// Workload-specific per-layer metrics of the traced run.
  virtual void layer_metrics(Outcome& out, const Tracer& tr) = 0;
  /// Calls whose answers are digested (and whose counts the traced run
  /// reports): the prefix [0, prefix_calls()), within the first session.
  virtual int prefix_calls() const = 0;
  /// Called (untimed) before every kSessionCalls-th call: an operator
  /// session ends, the engines' answer caches are dropped.  Bounds cache
  /// memory and keeps the cost mix the same however many calls a run makes.
  virtual void new_session() {}

 protected:
  /// One set-up section: always timed into setup_ms_, spanned when tracing.
  class SetupSection {
   public:
    SetupSection(Tracer& tr, double& acc, const char* layer, const char* name)
        : span_(tr, layer, name), acc_(acc) {}
    ~SetupSection() { acc_ += thread_cpu_ms() - t0_; }
    SetupSection(const SetupSection&) = delete;
    SetupSection& operator=(const SetupSection&) = delete;

   private:
    Tracer::Scope span_;
    double& acc_;
    double t0_ = thread_cpu_ms();
  };

  double setup_ms_ = 0.0;
};

constexpr int kSessionCalls = 64;

// ============================================================ query side ===

/// Variant identity of a generated query, as the benchmark knows it (0 =
/// the untouched resident).  Only used to group the replay the way the
/// engine groups its work.
using VariantKey = std::uint64_t;

struct GeneratedBatch {
  std::vector<WhatIfQuery> queries;
  std::vector<VariantKey> variant;
  long exact_repeats = 0;
};

/// Shared machinery of the three QueryEngine workloads.
class QueryWorkload : public Workload {
 public:
  QueryWorkload(const Options& o, Tracer& tr) : opts_(o), tr_(&tr) {}

  void new_session() override {
    engine_->clear_cache();
    if (parallel_) parallel_->clear_cache();
  }

  void reset() override {
    new_session();
    serial_base_ = serial_counts();
    prefix_digest_ = Digest{};
    digested_ = 0;
    samples_.clear();
    batches_.clear();
    next_ = 0;
    counters_ = Counters{};
    exact_repeats_ = 0;
    generated_ = 0;
    cost_seen_[0] = cost_seen_[1] = cost_seen_[2] = cost_seen_[3] = 0;
    fault_view_ms_ = 0.0;
    probes_ = 0;
  }

 protected:
  struct Sample {
    WhatIfQuery q;
    QueryResult r;
  };

  /// Inputs of call i (called once per i, in order, after reset()).
  virtual GeneratedBatch generate(int i) = 0;
  /// Chance that a call has one answer sampled for the gate (call 0
  /// always does).
  virtual double sample_rate() const = 0;
  virtual std::size_t max_samples() const = 0;

  void make_engine(const topo::Topology& topo, const traffic::TrafficSpec& spec,
                   core::CollapseMode collapse) {
    topo_ = &topo;
    spec_ = spec;
    eopts_.threads = 1;
    eopts_.parallel = false;
    eopts_.build.threads = 1;
    eopts_.build.collapse = collapse;
    engine_ = std::make_unique<harness::QueryEngine>(eopts_);
    SetupSection s(*tr_, setup_ms_, "core", "core.build");
    engine_->resident(topo, spec);
  }

  /// The same engine at nproc threads (built on first use): the other side
  /// of the digest check and of the parallel-efficiency figure.
  harness::QueryEngine& parallel_engine() {
    if (!parallel_) {
      harness::QueryEngine::Options po = eopts_;
      po.threads = engine_threads();
      po.parallel = true;
      po.build.threads = 0;
      parallel_ = std::make_unique<harness::QueryEngine>(*topo_, spec_, po);
    }
    return *parallel_;
  }

  /// Inputs of call i.  Calls are generated in order (a workload may count
  /// repeats within a session); the prefix is kept for the digest replay on
  /// the parallel engine, later batches only while they are current.
  const GeneratedBatch& batch(int i) {
    if (i < static_cast<int>(batches_.size()))
      return batches_[static_cast<std::size_t>(i)];
    while (next_ <= i) {
      current_ = generate(next_);
      exact_repeats_ += current_.exact_repeats;
      generated_ += static_cast<long>(current_.queries.size());
      if (next_ < prefix_calls()) batches_.push_back(current_);
      ++next_;
    }
    return current_;
  }

  /// Record call i's answers: digest (prefix), cost mix, gate samples.
  void observe(int i, const GeneratedBatch& b,
               const std::vector<QueryResult>& res) {
    if (i < prefix_calls()) {
      for (const QueryResult& r : res) prefix_digest_.add(r);
      digested_ = i + 1;
    }
    for (const QueryResult& r : res) ++cost_seen_[static_cast<int>(r.cost)];
    Rng pick(stream_seed(opts_.seed, kSample, static_cast<std::uint64_t>(i)));
    if (samples_.size() < max_samples() &&
        (i == 0 || pick.uniform() < sample_rate())) {
      const std::size_t j = static_cast<std::size_t>(
          pick.below(static_cast<int>(res.size())));
      samples_.push_back({b.queries[j], res[j]});
    }
  }

  /// Replay the engine's non-memoized work of one call through core (and
  /// topo for fault views), under spans, grouped into variants the way the
  /// engine groups them.
  void replay(const std::vector<WhatIfQuery>& qs,
              const std::vector<VariantKey>& vkeys,
              const std::vector<QueryCost>& costs,
              const std::vector<QueryResult>& answers, bool counted,
              Outcome& out) {
    const core::RetunableTrafficModel& resident = engine_->resident_model(0);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < qs.size(); ++i)
      if (costs[i] != QueryCost::Memoized) order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return vkeys[a] < vkeys[b];
                     });
    std::unique_ptr<core::RetunableTrafficModel> clone;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      const WhatIfQuery& q = qs[i];
      if (k == 0 || vkeys[i] != vkeys[order[k - 1]]) {
        clone.reset();
        if (vkeys[i] != 0) prepare(resident, q, clone, counted);
      }
      const core::GeneralModel& m = clone ? clone->model() : resident.model();
      switch (q.metric) {
        case QueryMetric::Latency: {
          Tracer::Scope s(*tr_, "core", "core.solve");
          (void)m.evaluate(q.lambda0);
          if (counted) ++counters_.solves;
          break;
        }
        case QueryMetric::ClassBreakdown: {
          Tracer::Scope s(*tr_, "core", "core.solve");
          (void)m.solve(q.lambda0);
          if (counted) ++counters_.solves;
          break;
        }
        case QueryMetric::Saturation: {
          long solves = 0;
          double rate = 0.0;
          {
            Tracer::Scope s(*tr_, "core", "core.saturation");
            rate = core::find_saturation_rate(
                [&](double lambda0) {
                  ++solves;
                  ++probes_;
                  return core::model_latency(m, lambda0, m.opts).inj_service;
                },
                1.0 / m.opts.worm_flits);
          }
          if (counted) {
            ++counters_.saturation_queries;
            counters_.saturation_solves += solves;
            counters_.solves += solves;
            // The counting search must be the library's search, bit for bit.
            const double lib = core::model_saturation_rate(m, m.opts);
            if (util::double_bits(rate) != util::double_bits(lib) ||
                util::double_bits(rate) !=
                    util::double_bits(answers[i].saturation_rate))
              out.fail("counting saturation search differs from "
                        "model_saturation_rate / the engine");
          }
          break;
        }
      }
    }
  }

  /// Prepare one variant from the resident, in the engine's delta order.
  void prepare(const core::RetunableTrafficModel& resident,
               const WhatIfQuery& q,
               std::unique_ptr<core::RetunableTrafficModel>& clone,
               bool counted) {
    {
      Tracer::Scope s(*tr_, "core", "core.clone");
      clone = std::make_unique<core::RetunableTrafficModel>(resident);
    }
    if (q.faults && !q.faults->empty()) {
      {
        Tracer::Scope s(*tr_, "topo", "topo.fault_view");
        const topo::FaultedTopology view(*topo_, *q.faults);
        (void)view.affected_destinations();
        fault_view_ms_ += s.elapsed_ms();
      }
      core::RetuneReport rep;
      {
        Tracer::Scope s(*tr_, "core", "core.retune_faults");
        rep = clone->retune_faults(q.faults);
      }
      if (counted) {
        counters_.retune_faults_passes += rep.passes;
        counters_.rebuilds += rep.rebuilt;
      }
    }
    if (q.traffic) {
      core::RetuneReport rep;
      {
        Tracer::Scope s(*tr_, "core", "core.retune_traffic");
        rep = clone->retune_traffic(*q.traffic);
      }
      if (counted) {
        counters_.retune_traffic_passes += rep.passes;
        counters_.rebuilds += rep.rebuilt;
      }
    }
    if (q.lanes || q.buffer_depth || q.bandwidth_scale != 1.0 ||
        q.load_scale != 1.0 || q.arrival) {
      Tracer::Scope s(*tr_, "core", "core.tune");
      if (q.lanes != 0) clone->set_uniform_lanes(q.lanes);
      if (q.buffer_depth != 0) clone->set_uniform_buffers(q.buffer_depth);
      if (q.bandwidth_scale != 1.0) clone->scale_bandwidths(q.bandwidth_scale);
      if (q.load_scale != 1.0) clone->scale_injection_rates(q.load_scale);
      if (q.arrival) clone->set_injection_process(*q.arrival, q.lambda0);
    }
  }

  /// The threads=1 engine's lifetime counters: variants, served,
  /// memoized, sweep hits, sweep misses.
  std::array<double, 5> serial_counts() const {
    const harness::QueryEngine& s = *engine_;
    return {static_cast<double>(s.variants_prepared()),
            static_cast<double>(s.queries_served()),
            static_cast<double>(s.served_memoized()),
            static_cast<double>(s.sweep_cache_hits()),
            static_cast<double>(s.sweep_cache_misses())};
  }

  /// The threads=1 engine's own counters over the prefix (deltas since
  /// reset()).
  void snapshot_serial_counters() {
    std::array<double, 5> c = serial_counts();
    for (std::size_t k = 0; k < c.size(); ++k) c[k] -= serial_base_[k];
    counters_.variants_prepared = c[0];
    counters_.memo_hit_ratio = c[1] > 0 ? c[2] / c[1] : 0.0;
    counters_.sweep_hit_ratio = c[3] + c[4] > 0 ? c[3] / (c[3] + c[4]) : 0.0;
  }

  /// Gate: cold recompute of every sample.
  void verify_samples(Outcome& out) {
    for (std::size_t k = 0; k < samples_.size(); ++k) {
      Sample& s = samples_[k];
      if (k == 0 && opts_.inject == Inject::PerturbAnswer) {
        s.r.est.latency *= 1.0 + 1e-6;
        s.r.saturation_rate *= 1.0 + 1e-6;
        for (harness::ClassLoadRow& row : s.r.breakdown) row.wait *= 1.0 + 1e-6;
      }
      const std::string why = check_answer(*topo_, spec_, s.q, s.r);
      if (!why.empty()) out.fail("cold recompute: " + why);
    }
    out.note("gate_samples", static_cast<double>(samples_.size()));
  }

  void record_query_mix(Outcome& out) const {
    const double total = static_cast<double>(
        cost_seen_[0] + cost_seen_[1] + cost_seen_[2] + cost_seen_[3]);
    const char* names[4] = {"memoized", "reevaluate", "retune", "rebuild"};
    for (int c = 0; c < 4; ++c)
      out.note(std::string("cost_share.") + names[c],
               total > 0 ? static_cast<double>(cost_seen_[c]) / total : 0.0);
    out.note("exact_repeat_share",
             generated_ > 0 ? static_cast<double>(exact_repeats_) /
                                  static_cast<double>(generated_)
                            : 0.0);
  }

  void layer_metrics(Outcome& out, const Tracer& tr) override {
    auto& m = out.metrics;
    // Mean solve time over every solve the replay ran, the Eq. 26 probes
    // included (a saturation search is probes x one solve).
    constexpr Tracer::Phase kCalls = Tracer::Phase::Calls;
    const double solves =
        static_cast<double>(tr.count("core.solve", kCalls) + probes_);
    m["core.solve_us"] =
        solves > 0 ? 1000.0 *
                         (tr.total_ms("core.solve", kCalls) +
                          tr.total_ms("core.saturation", kCalls)) / solves
                   : 0.0;
    const double q = static_cast<double>(std::max(1L, counters_.queries));
    m["harness.query.cost_memoized"] = static_cast<double>(counters_.cost[0]) / q;
    m["harness.query.cost_reevaluate"] = static_cast<double>(counters_.cost[1]) / q;
    m["harness.query.cost_retune"] = static_cast<double>(counters_.cost[2]) / q;
    m["harness.query.cost_rebuild"] = static_cast<double>(counters_.cost[3]) / q;
    m["harness.query.memo_hit_ratio"] = counters_.memo_hit_ratio;
    m["harness.query.variants_prepared"] = counters_.variants_prepared;
    m["harness.sweep.hit_ratio"] = counters_.sweep_hit_ratio;
    m["core.solve_calls"] = static_cast<double>(counters_.solves);
    m["core.retune_traffic_passes"] =
        static_cast<double>(counters_.retune_traffic_passes);
    m["core.retune_faults_passes"] =
        static_cast<double>(counters_.retune_faults_passes);
    m["core.build_calls"] += static_cast<double>(counters_.rebuilds);
    m["core.saturation_solves_per_query"] =
        counters_.saturation_queries
            ? static_cast<double>(counters_.saturation_solves) /
                  static_cast<double>(counters_.saturation_queries)
            : 0.0;
  }

  void count_costs(const std::vector<QueryCost>& costs) {
    for (QueryCost c : costs) ++counters_.cost[static_cast<int>(c)];
    counters_.queries += static_cast<long>(costs.size());
  }

  Options opts_;
  Tracer* tr_;  ///< set-up spans, then the tracer of the current call
  const topo::Topology* topo_ = nullptr;
  traffic::TrafficSpec spec_ = traffic::TrafficSpec::uniform();
  harness::QueryEngine::Options eopts_;
  std::unique_ptr<harness::QueryEngine> engine_;
  std::unique_ptr<harness::QueryEngine> parallel_;
  std::array<double, 5> serial_base_ = {0, 0, 0, 0, 0};

  Digest prefix_digest_;
  int digested_ = 0;
  std::vector<Sample> samples_;
  std::vector<GeneratedBatch> batches_;
  GeneratedBatch current_;
  int next_ = 0;
  Counters counters_;
  long exact_repeats_ = 0;
  long generated_ = 0;
  long cost_seen_[4] = {0, 0, 0, 0};
  double fault_view_ms_ = 0.0;  ///< replay-only fault views, all calls
  long probes_ = 0;             ///< saturation-search solves, all calls
};

/// run_batch workloads (whatif, saturation): one call = one batch.
class BatchWorkload : public QueryWorkload {
 public:
  using QueryWorkload::QueryWorkload;

  int call(int i) override {
    const GeneratedBatch& b = batch(i);
    const std::vector<QueryResult> res = engine_->run_batch(b.queries);
    observe(i, b, res);
    return static_cast<int>(b.queries.size());
  }

  int traced_call(int i, Tracer& tr, bool counted, TracedCall& t,
                  Outcome& out) override {
    tr_ = &tr;
    const GeneratedBatch& b = batch(i);
    std::vector<QueryResult> res;
    {
      Tracer::Scope s(tr, "harness", "harness.query.run_batch");
      res = engine_->run_batch(b.queries);
      t.serial_ms = s.elapsed_ms();
    }
    observe(i, b, res);
    harness::QueryEngine& par = parallel_engine();
    {
      Tracer::Scope s(tr, "harness", "harness.query.run_batch_parallel");
      (void)par.run_batch(b.queries);
      t.parallel_ms = s.elapsed_ms();
    }
    std::vector<QueryCost> costs;
    for (const QueryResult& r : res) costs.push_back(r.cost);
    {
      Tracer::Scope s(tr, "bench", "bench.replay");
      replay(b.queries, b.variant, costs, res, counted, out);
      t.replay_ms = s.elapsed_ms();
    }
    if (counted) {
      count_costs(costs);
      if (i + 1 == prefix_calls()) snapshot_serial_counters();
    }
    return static_cast<int>(b.queries.size());
  }

  void verify(Outcome& out) override {
    // Complete the digest prefix if the timed loop stopped short of it.
    for (int i = digested_; i < prefix_calls(); ++i) call(i);
    verify_samples(out);
    harness::QueryEngine& par = parallel_engine();
    par.clear_cache();
    Digest d;
    for (int i = 0; i < prefix_calls(); ++i)
      for (const QueryResult& r : par.run_batch(batch(i).queries)) d.add(r);
    if (opts_.inject == Inject::DigestMismatch) d.add(std::uint64_t{1});
    if (d.value() != prefix_digest_.value())
      out.fail("answer digest differs between threads=1 (" +
               prefix_digest_.hex() + ") and threads=" +
               std::to_string(engine_threads()) + " (" + d.hex() + ")");
    out.note("answer_digest", prefix_digest_.hex());
    out.note("digest_calls", static_cast<double>(prefix_calls()));
    record_query_mix(out);
  }
};

// ------------------------------------------------------------- whatif -----

/// The operator session of examples/whatif_service, with the buffer and
/// bandwidth axes added.  Question k of a session takes slot k mod 12 of the
/// service's cycle and the service's cycling parameters, so exact repeats
/// come from the cycle as they do there:
///   slots 0-3  hotspot delta, fraction 0.05 + 0.05 (k mod 8)  (service)
///   slots 4-5  load x1.2 when k mod 4 = 0, else x0.9          (service)
///   slot  6    lanes 4, Saturation                            (service)
///   slot  7    arrivals turned bursty, batch(4)               (service)
///   slot  8    ClassBreakdown of the baseline                 (service)
///   slot  9    plain re-read of the baseline                  (service)
///   slot  10   buffer depth 2 or 8, alternating per cycle     (added)
///   slot  11   bandwidth x0.8 or x1.25, alternating per cycle (added)
/// and lambda0 = 0.0008 + 0.0003 (k mod 5), as in the service.  The
/// service's hotspot sits at node 0; here each call moves it to a seeded
/// node, and each session starts at a seeded call boundary of the cycle
/// (a multiple of gcd(64, 120) = 8), so every seed's session asks the same
/// calls in another order.
class WhatIf final : public BatchWorkload {
 public:
  static constexpr int kSlots = 12;
  static constexpr int kCycle = 120;  // lcm(2 x 12, 8, 5, 4)

  WhatIf(const Options& o, Tracer& tr) : BatchWorkload(o, tr) {
    {
      SetupSection s(tr, setup_ms_, "topo", "topo.build");
      fattree_ = std::make_unique<topo::ButterflyFatTree>(o.minimal ? 2 : 4);
    }
    make_engine(*fattree_, traffic::TrafficSpec::uniform(),
                core::CollapseMode::Auto);
  }

  int prefix_calls() const override { return opts_.minimal ? 3 : 24; }

 protected:
  double sample_rate() const override { return 0.125; }
  std::size_t max_samples() const override { return opts_.minimal ? 8 : 40; }

  GeneratedBatch generate(int i) override {
    const int n = opts_.minimal ? 8 : 64;
    const int in_session = i % kSessionCalls;
    if (in_session == 0) {
      asked_.clear();  // repeats are counted within a session
      phase_ = 8 * Rng(stream_seed(opts_.seed, kSessionPhase,
                                   static_cast<std::uint64_t>(i / kSessionCalls)))
                       .below(kCycle / 8);
    }
    Rng r(stream_seed(opts_.seed, kCallInputs, static_cast<std::uint64_t>(i)));
    const int hot_node = r.below(fattree_->num_processors());
    GeneratedBatch b;
    for (int j = 0; j < n; ++j) {
      const int k = phase_ + in_session * n + j;
      const int slot = k % kSlots;
      const int alt = (k / kSlots) % 2;
      WhatIfQuery q;
      VariantKey key = 0;
      q.lambda0 = 0.0008 + 0.0003 * (k % 5);
      if (slot < 4) {  // the hotspot tightened / moved
        q.traffic = traffic::TrafficSpec::hotspot(0.05 + 0.05 * (k % 8), hot_node);
        key = util::hash_mix(util::hash_mix(1, static_cast<std::uint64_t>(hot_node)),
                             static_cast<std::uint64_t>(k % 8));
      } else if (slot < 6) {  // load +20% / -10%
        q.load_scale = k % 4 == 0 ? 1.2 : 0.9;
        key = util::hash_mix(2, static_cast<std::uint64_t>(k % 4 == 0));
      } else if (slot == 6) {  // pay for 4 virtual channels?
        q.lanes = 4;
        q.metric = QueryMetric::Saturation;
        key = 3;
      } else if (slot == 7) {  // arrivals turned bursty
        q.arrival = arrivals::ArrivalSpec::batch(4.0);
        key = 4;
      } else if (slot == 8) {  // where is the load sitting?
        q.metric = QueryMetric::ClassBreakdown;
      } else if (slot == 10) {  // shallower / deeper buffers
        q.buffer_depth = alt ? 8 : 2;
        key = util::hash_mix(5, static_cast<std::uint64_t>(alt));
      } else if (slot == 11) {  // slower / faster links
        q.bandwidth_scale = alt ? 1.25 : 0.8;
        key = util::hash_mix(6, static_cast<std::uint64_t>(alt));
      }  // slot 9: plain re-read of the baseline curve
      const std::uint64_t question = util::hash_mix(
          util::hash_mix(key, static_cast<std::uint64_t>(q.metric)),
          static_cast<std::uint64_t>(k % 5));
      b.exact_repeats += !asked_.insert(question).second;
      b.queries.push_back(q);
      b.variant.push_back(key);
    }
    return b;
  }

 private:
  std::unique_ptr<topo::ButterflyFatTree> fattree_;
  std::unordered_set<std::uint64_t> asked_;  ///< questions of this session
  int phase_ = 0;                            ///< session's start in the cycle
};

// --------------------------------------------------------- saturation -----

class Saturation final : public BatchWorkload {
 public:
  Saturation(const Options& o, Tracer& tr) : BatchWorkload(o, tr) {
    {
      SetupSection s(tr, setup_ms_, "topo", "topo.build");
      mesh_ = std::make_unique<topo::Mesh>(o.minimal ? 4 : 16, 2);
    }
    make_engine(*mesh_, traffic::TrafficSpec::uniform(),
                core::CollapseMode::Dense);
  }

  int prefix_calls() const override { return opts_.minimal ? 2 : 6; }

 protected:
  double sample_rate() const override { return 0.2; }
  std::size_t max_samples() const override { return opts_.minimal ? 2 : 12; }

  /// Every query is a distinct variant: query g of the run takes
  /// combination (seeded start + g) of lanes x buffer x bandwidth x arrival
  /// (4 x 4 x 3 x 4 = 192) and a continuous load scale from a seeded
  /// golden-ratio sequence, so no two questions share an answer or a
  /// memoized solve, and every run covers the combinations evenly.
  GeneratedBatch generate(int i) override {
    const int n = 2;
    const int start = static_cast<int>(192.0 * seeded_offset(opts_.seed, 0));
    const double load_offset = seeded_offset(opts_.seed, 1);
    GeneratedBatch b;
    for (int j = 0; j < n; ++j) {
      const int g = n * i + j;
      const int c = (start + g) % 192;
      WhatIfQuery q;
      q.metric = QueryMetric::Saturation;
      static constexpr int kBuf[4] = {2, 4, 8, 16};
      static constexpr double kBw[3] = {0.5, 1.0, 2.0};
      q.lanes = 1 + c % 4;
      q.buffer_depth = kBuf[(c / 4) % 4];
      q.bandwidth_scale = kBw[(c / 16) % 3];
      q.load_scale = 0.5 + golden(load_offset, g);
      const int a = c / 48;
      if (a == 1) q.arrival = arrivals::ArrivalSpec::batch(2.0);
      if (a == 2) q.arrival = arrivals::ArrivalSpec::deterministic();
      if (a == 3) q.arrival = arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0);
      b.queries.push_back(q);
      // Distinct by construction: the key is the query's position.
      b.variant.push_back(util::hash_mix(static_cast<std::uint64_t>(i) + 1,
                                         static_cast<std::uint64_t>(j)));
    }
    return b;
  }

 private:
  std::unique_ptr<topo::Mesh> mesh_;
};

// ------------------------------------------------------- availability -----

class Availability final : public QueryWorkload {
 public:
  // Every kNMinus2Every-th call asks seeded N-2 scenarios instead of the
  // N-1 sweep.
  static constexpr int kNMinus2Every = 4;

  Availability(const Options& o, Tracer& tr) : QueryWorkload(o, tr) {
    {
      SetupSection s(tr, setup_ms_, "topo", "topo.build");
      fattree_ = std::make_unique<topo::ButterflyFatTree>(o.minimal ? 2 : 3);
    }
    make_engine(*fattree_, traffic::TrafficSpec::uniform(),
                core::CollapseMode::Dense);
    {
      SetupSection s(tr, setup_ms_, "core", "core.saturation");
      base_sat_ = core::model_saturation_rate(
          engine_->resident_model(0).model(), eopts_.solve);
    }
    const topo::Topology& t = *fattree_;
    for (int node = 0; node < t.num_nodes(); ++node) {
      if (t.is_processor(node)) continue;
      for (int port = 0; port < t.num_ports(node); ++port) {
        const int peer = t.neighbor(node, port);
        if (peer == topo::kNoNode || t.is_processor(peer)) continue;
        if (std::make_pair(peer, t.neighbor_port(node, port)) <
            std::make_pair(node, port))
          continue;
        links_.emplace_back(node, port);
      }
    }
  }

  int prefix_calls() const override { return opts_.minimal ? 2 : 8; }

  void reset() override {
    QueryWorkload::reset();
    scenarios_seen_ = 0;
    n2_calls_ = 0;
    calls_seen_ = 0;
  }

  int call(int i) override {
    const Plan p = plan(i);
    const harness::AvailabilityReport rep = run(*engine_, p);
    observe(i, p, rep);
    return static_cast<int>(rep.rows.size());
  }

  int traced_call(int i, Tracer& tr, bool counted, TracedCall& t,
                  Outcome& out) override {
    tr_ = &tr;
    const Plan p = plan(i);
    harness::AvailabilityReport rep;
    {
      Tracer::Scope s(tr, "harness", "harness.query.availability");
      rep = run(*engine_, p);
      t.serial_ms = s.elapsed_ms();
    }
    observe(i, p, rep);
    {
      Tracer::Scope s(tr, "harness", "harness.query.availability_parallel");
      (void)run(parallel_engine(), p);
      t.parallel_ms = s.elapsed_ms();
    }
    // The engine's batch behind the call: the healthy probe, then one
    // Latency query per scenario (rows come back ranked; map them back).
    std::vector<WhatIfQuery> qs;
    std::vector<VariantKey> keys;
    std::vector<QueryCost> costs;
    std::vector<QueryResult> answers;
    WhatIfQuery probe;
    probe.lambda0 = p.lambda0;
    qs.push_back(probe);
    keys.push_back(0);
    costs.push_back(QueryCost::Reevaluate);
    for (const harness::AvailabilityRow& row : rep.rows) {
      WhatIfQuery q = probe;
      q.faults = row.faults;
      qs.push_back(q);
      keys.push_back(row.faults->digest());
      costs.push_back(row.cost);
    }
    answers.resize(qs.size());
    {
      Tracer::Scope s(tr, "bench", "bench.replay");
      const double views_before = fault_view_ms_;
      replay(qs, keys, costs, answers, counted, out);
      // The engine builds its fault views inside retune_faults; the
      // replay's own topo.fault_view spans are extra work, not the engine's.
      t.replay_ms = s.elapsed_ms() - (fault_view_ms_ - views_before);
    }
    if (counted) {
      count_costs(costs);
      if (i + 1 == prefix_calls()) snapshot_serial_counters();
    }
    return static_cast<int>(rep.rows.size());
  }

  void verify(Outcome& out) override {
    for (int i = digested_; i < prefix_calls(); ++i) call(i);
    verify_samples(out);
    harness::QueryEngine& par = parallel_engine();
    par.clear_cache();
    Digest d;
    for (int i = 0; i < prefix_calls(); ++i) d.add(run(par, plan(i)));
    if (opts_.inject == Inject::DigestMismatch) d.add(std::uint64_t{1});
    if (d.value() != prefix_digest_.value())
      out.fail("availability digest differs between threads=1 (" +
               prefix_digest_.hex() + ") and threads=" +
               std::to_string(engine_threads()) + " (" + d.hex() + ")");
    out.note("answer_digest", prefix_digest_.hex());
    out.note("digest_calls", static_cast<double>(prefix_calls()));
    out.note("scenarios_per_call",
             calls_seen_ ? static_cast<double>(scenarios_seen_) /
                               static_cast<double>(calls_seen_)
                         : 0.0);
    out.note("n_minus_2_call_share",
             calls_seen_ ? static_cast<double>(n2_calls_) /
                               static_cast<double>(calls_seen_)
                         : 0.0);
    out.note("failable_links", static_cast<double>(links_.size()));
    record_query_mix(out);
  }


 protected:
  GeneratedBatch generate(int) override { return {}; }
  double sample_rate() const override { return 0.25; }
  std::size_t max_samples() const override { return opts_.minimal ? 2 : 24; }

 private:
  struct Plan {
    double lambda0 = 0.0;
    bool n_minus_2 = false;
    std::vector<std::shared_ptr<const topo::FaultSet>> scenarios;
  };

  /// Call i: a fresh load in [20%, 60%] of the healthy saturation rate,
  /// from a seeded golden-ratio sequence; every fourth call asks one N-2
  /// scenario per link pair drawn from the call's seed (as many scenarios
  /// as the N-1 sweep has).
  Plan plan(int i) const {
    Rng r(stream_seed(opts_.seed, kCallInputs, static_cast<std::uint64_t>(i)));
    Plan p;
    p.lambda0 = base_sat_ * (0.2 + 0.4 * golden(seeded_offset(opts_.seed, 0), i));
    p.n_minus_2 = i % kNMinus2Every == kNMinus2Every - 1;
    if (p.n_minus_2) {
      const int n = static_cast<int>(links_.size());
      for (int s = 0; s < n; ++s) {
        const int a = r.below(n);
        int b = r.below(n - 1);
        if (b >= a) ++b;
        auto fs = std::make_shared<topo::FaultSet>(*fattree_);
        fs->fail_link(links_[static_cast<std::size_t>(a)].first,
                      links_[static_cast<std::size_t>(a)].second);
        fs->fail_link(links_[static_cast<std::size_t>(b)].first,
                      links_[static_cast<std::size_t>(b)].second);
        p.scenarios.push_back(std::move(fs));
      }
    }
    return p;
  }

  static harness::AvailabilityReport run(harness::QueryEngine& e,
                                         const Plan& p) {
    return p.n_minus_2 ? e.availability_scenarios(0, p.lambda0, p.scenarios)
                       : e.availability_n_minus_1(0, p.lambda0);
  }

  void observe(int i, const Plan& p, const harness::AvailabilityReport& rep) {
    ++calls_seen_;
    n2_calls_ += p.n_minus_2;
    scenarios_seen_ += static_cast<long>(rep.rows.size());
    if (i < prefix_calls()) {
      prefix_digest_.add(rep);
      digested_ = i + 1;
    }
    for (const harness::AvailabilityRow& row : rep.rows)
      ++cost_seen_[static_cast<int>(row.cost)];
    Rng pick(stream_seed(opts_.seed, kSample, static_cast<std::uint64_t>(i)));
    if (samples_.size() + 1 < max_samples() &&
        (i == 0 || pick.uniform() < sample_rate())) {
      WhatIfQuery q;
      q.lambda0 = p.lambda0;
      QueryResult r;
      r.est = rep.baseline;
      samples_.push_back({q, r});
      const harness::AvailabilityRow& row = rep.rows[static_cast<std::size_t>(
          pick.below(static_cast<int>(rep.rows.size())))];
      q.faults = row.faults;
      r.est = row.est;
      samples_.push_back({q, r});
    }
  }

  std::unique_ptr<topo::ButterflyFatTree> fattree_;
  double base_sat_ = 0.0;
  std::vector<std::pair<int, int>> links_;
  long scenarios_seen_ = 0;
  long n2_calls_ = 0;
  long calls_seen_ = 0;
};

// =========================================================== campaign ======

/// Model-vs-sim campaign shaped like test_model_vs_sim_conformance: fat-tree
/// (N = 64), 3-ary 3-mesh and 4-cube x {uniform, hotspot 10%} x lanes
/// {1, 2, 4}, at 20% and 50% of each cell's model saturation, held to the
/// suite's 10% / 15% error bounds.  Call i runs all 18 cells once, one
/// seeded replication each, cell c at load (c + i) mod 2: calls are alike
/// (their times form one distribution) and two calls cover all 36
/// cell-loads.
class Campaign final : public Workload {
 public:
  static constexpr double kFracs[2] = {0.2, 0.5};
  static constexpr double kBounds[2] = {0.10, 0.15};

  Campaign(const Options& o, Tracer& tr) : opts_(o), tr_(&tr) {
    const int kinds = o.minimal ? 1 : 3;
    const int lane_set[3] = {1, 2, 4};
    for (int k = 0; k < kinds; ++k) {
      for (int pattern = 0; pattern < 2; ++pattern) {
        for (int l = 0; l < 3; ++l) {
          Cell c;
          c.lanes = lane_set[l];
          c.topo = topology(k, c.lanes);
          c.hotspot = pattern == 1;
          const traffic::TrafficSpec spec = pattern_spec(c.hotspot);
          core::SolveOptions so;
          so.worm_flits = 16.0;
          std::optional<core::GeneralModel> model;
          {
            SetupSection s(tr, setup_ms_, "core", "core.build");
            model.emplace(core::build_traffic_model(*c.topo, spec, so));
          }
          {
            SetupSection s(tr, setup_ms_, "core", "core.saturation");
            c.sat = core::model_saturation_rate(*model, so);
          }
          for (int f = 0; f < 2; ++f) {
            SetupSection s(tr, setup_ms_, "core", "core.solve");
            c.model_latency[f] =
                core::model_latency(*model, c.sat * kFracs[f], so).latency;
          }
          cells_.push_back(c);
        }
      }
    }
    harness::SimEngine::Options eo;
    eo.threads = 1;
    eo.parallel = false;
    engine_ = std::make_unique<harness::SimEngine>(eo);
  }

  int prefix_calls() const override { return 2; }

  void reset() override {
    digest_ = Digest{};
    digested_ = 0;
    first_round_err_ = 0.0;
    calls_done_ = 0;
    nets_.clear();  // the traced phase times its own network builds
    pooled_sum_.assign(cell_loads(), 0.0);
    pooled_n_.assign(cell_loads(), 0.0);
    sim_cycles_ = 0;
    run_cycles_ = 0;
    run_flits_ = 0;
  }

  int call(int i) override {
    const std::vector<harness::SimCell> cells = round(i);
    observe(i, engine_->run_cells(cells));
    return static_cast<int>(cells.size());
  }

  int traced_call(int i, Tracer& tr, bool, TracedCall& t,
                  Outcome& out) override {
    tr_ = &tr;
    const std::vector<harness::SimCell> cells = round(i);
    std::vector<harness::SimCellResult> res;
    {
      Tracer::Scope s(tr, "harness", "harness.sim_engine.run_cells");
      res = engine_->run_cells(cells);
      t.serial_ms = s.elapsed_ms();
    }
    observe(i, res);
    {
      Tracer::Scope s(tr, "harness", "harness.sim_engine.run_cells_parallel");
      (void)parallel_engine().run_cells(cells);
      t.parallel_ms = s.elapsed_ms();
    }
    // Replay every replication directly through sim, on one thread.
    Tracer::Scope replay(tr, "bench", "bench.replay");
    double sum = 0.0, slowest = 0.0;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const sim::SimNetwork& net = network(cells[k].topology);
      sim::SimResult r;
      {
        Tracer::Scope s(tr, "sim", "sim.run");
        sim::Simulator simulator(net, cells[k].cfg);
        r = simulator.run();
        const double ms = s.elapsed_ms();
        sum += ms;
        slowest = std::max(slowest, ms);
      }
      run_cycles_ += static_cast<double>(r.cycles_run);
      run_flits_ += static_cast<double>(r.delivered_flits);
      Digest a, b;
      a.add(r);
      b.add(res[k].runs.front());
      if (a.value() != b.value())
        out.fail("direct Simulator::run differs from the SimEngine "
                       "replication it replays");
    }
    t.straggler = sum > 0 ? slowest / (sum / static_cast<double>(cells.size()))
                          : 0.0;
    t.replay_ms = replay.elapsed_ms();
    return static_cast<int>(cells.size());
  }

  void verify(Outcome& out) override {
    // The accuracy gate pools at least kGateCalls calls per cell-load pair.
    for (int i = calls_done_; i < std::max(prefix_calls(), kGateCalls); ++i)
      call(i);
    for (const std::string& why : failures_) out.fail(why);
    failures_.clear();
    // Accuracy gate per cell-load, on the mean over every replication the
    // run made of it (the suite's bounds; one seed's noise is not a miss).
    double worst_pooled = 0.0;
    for (int k = 0; k < cell_loads(); ++k) {
      const double runs = pooled_n_[static_cast<std::size_t>(k)];
      if (runs == 0) continue;
      const double sim_lat = pooled_sum_[static_cast<std::size_t>(k)] / runs;
      const Cell& c = cell_of(k);
      const int f = load_of(k);
      const double err = std::fabs(c.model_latency[f] - sim_lat) / sim_lat;
      worst_pooled = std::max(worst_pooled, err);
      if (!(err <= kBounds[f])) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s L=%d %s at %.0f%% load: model-vs-sim error %.1f%% "
                      "over the %.0f%% bound",
                      c.topo->name().c_str(), c.lanes,
                      c.hotspot ? "hotspot" : "uniform", 100.0 * kFracs[f],
                      100.0 * err, 100.0 * kBounds[f]);
        out.fail(buf);
      }
    }
    harness::SimEngine& par = parallel_engine();
    Digest d;
    for (int i = 0; i < prefix_calls(); ++i)
      for (const harness::SimCellResult& cr : par.run_cells(round(i)))
        for (const sim::SimResult& r : cr.runs) d.add(r);
    if (opts_.inject == Inject::DigestMismatch) d.add(std::uint64_t{1});
    if (d.value() != digest_.value())
      out.fail("SimResult digest differs between threads=1 (" +
               digest_.hex() + ") and threads=" +
               std::to_string(engine_threads()) + " (" + d.hex() + ")");
    out.note("answer_digest", digest_.hex());
    out.note("digest_calls", static_cast<double>(prefix_calls()));
    out.note("model_sim_err_pct", 100.0 * first_round_err_);
    out.note("model_sim_err_pct_pooled", 100.0 * worst_pooled);
    out.note("cells_per_call", static_cast<double>(cells_.size()));
    out.note("replications_per_cell_per_call", 1.0);
  }

  void layer_metrics(Outcome& out, const Tracer& tr) override {
    auto& m = out.metrics;
    constexpr Tracer::Phase kCalls = Tracer::Phase::Calls;
    m["sim.network_build_ms"] = tr.mean_ms("sim.network_build", kCalls);
    m["sim.run_ms"] = tr.mean_ms("sim.run", kCalls);
    const double run_s = tr.total_ms("sim.run", kCalls) * 1e-3;
    m["sim.cycles_per_s_thread"] = run_s > 0 ? run_cycles_ / run_s : 0.0;
    m["sim.ns_per_flit"] = run_flits_ > 0 ? run_s * 1e9 / run_flits_ : 0.0;
    // For the self-test's cross-check of the rate against the engine.
    out.note("sim_run_total_ms", run_s * 1e3);
  }

  /// Simulated cycles over the calls since reset().
  double sim_cycles() const { return sim_cycles_; }

 private:
  struct Cell {
    const topo::Topology* topo = nullptr;
    bool hotspot = false;
    int lanes = 1;
    double sat = 0.0;
    double model_latency[2] = {0.0, 0.0};
  };

  int cell_loads() const { return 2 * static_cast<int>(cells_.size()); }
  const Cell& cell_of(int k) const {
    return cells_[static_cast<std::size_t>(k) % cells_.size()];
  }
  int load_of(int k) const { return k / static_cast<int>(cells_.size()); }
  /// Cell-load index of cell c in call i.
  int cell_load(int i, int c) const {
    return ((c + i) % 2) * static_cast<int>(cells_.size()) + c;
  }

  static traffic::TrafficSpec pattern_spec(bool hotspot) {
    return hotspot ? traffic::TrafficSpec::hotspot(0.1)
                   : traffic::TrafficSpec::uniform();
  }

  /// One topology object per (kind, lanes): a SimNetwork snapshots lanes.
  const topo::Topology* topology(int kind, int lanes) {
    SetupSection s(*tr_, setup_ms_, "topo", "topo.build");
    std::unique_ptr<topo::Topology> t;
    if (kind == 0) t = std::make_unique<topo::ButterflyFatTree>(3);
    if (kind == 1) t = std::make_unique<topo::Mesh>(3, 3);
    if (kind == 2) t = std::make_unique<topo::Hypercube>(4);
    t->set_uniform_lanes(lanes);
    topos_.push_back(std::move(t));
    return topos_.back().get();
  }

  const sim::SimNetwork& network(const topo::Topology* t) {
    for (const auto& [topo, net] : nets_)
      if (topo == t) return *net;
    Tracer::Scope s(*tr_, "sim", "sim.network_build");
    nets_.emplace_back(t, std::make_unique<sim::SimNetwork>(*t));
    return *nets_.back().second;
  }

  harness::SimEngine& parallel_engine() {
    if (!parallel_) {
      harness::SimEngine::Options po;
      po.threads = engine_threads();
      parallel_ = std::make_unique<harness::SimEngine>(po);
    }
    return *parallel_;
  }

  /// Call i: every cell once, seeded from (--seed, i, cell).
  std::vector<harness::SimCell> round(int i) const {
    std::vector<harness::SimCell> out;
    for (int cell = 0; cell < static_cast<int>(cells_.size()); ++cell) {
      const int k = cell_load(i, cell);
      const Cell& c = cell_of(k);
      harness::SimCell sc;
      sc.topology = c.topo;
      sc.replications = 1;
      sc.cfg.load_flits = c.sat * kFracs[load_of(k)] * 16.0;
      sc.cfg.worm_flits = 16;
      sc.cfg.seed = stream_seed(opts_.seed, kSimSeed,
                                static_cast<std::uint64_t>(i) * 64 +
                                    static_cast<std::uint64_t>(k)) >> 16;
      sc.cfg.traffic = pattern_spec(c.hotspot);
      sc.cfg.warmup_cycles = kWarmupCycles;
      sc.cfg.measure_cycles = kMeasureCycles;
      sc.cfg.max_cycles = 600000;
      sc.cfg.channel_stats = false;
      if (i == 0 && cell == 0 && opts_.inject == Inject::TruncateReplication)
        sc.cycle_budget = 100;
      out.push_back(std::move(sc));
    }
    return out;
  }

  void observe(int i, const std::vector<harness::SimCellResult>& res) {
    double worst = 0.0;
    for (int cell = 0; cell < static_cast<int>(res.size()); ++cell) {
      const int k = cell_load(i, cell);
      const harness::SimCellResult& cr = res[static_cast<std::size_t>(cell)];
      for (const sim::SimResult& r : cr.runs) {
        sim_cycles_ += static_cast<double>(r.cycles_run);
        const std::string why = check_replication(r);
        if (!why.empty() && failures_.size() < 64)
          failures_.push_back("call " + std::to_string(i) + ": " + why);
        pooled_sum_[static_cast<std::size_t>(k)] += r.latency.mean();
        pooled_n_[static_cast<std::size_t>(k)] += 1;
        if (i < prefix_calls()) digest_.add(r);
      }
      const double sim_lat = cr.latency.mean;
      worst = std::max(
          worst, std::fabs(cell_of(k).model_latency[load_of(k)] - sim_lat) /
                     sim_lat);
    }
    if (i < prefix_calls()) {
      first_round_err_ = std::max(first_round_err_, worst);
      digested_ = i + 1;
    }
    calls_done_ = i + 1;
  }

  // Short windows keep a round near 100 ms of CPU; accuracy is judged on
  // the pooled replications of the whole run.
  static constexpr long kWarmupCycles = 4000;
  static constexpr long kMeasureCycles = 8000;
  static constexpr int kGateCalls = 16;

  Options opts_;
  Tracer* tr_;  ///< set-up spans, then the tracer of the current call
  std::vector<std::unique_ptr<topo::Topology>> topos_;
  std::vector<Cell> cells_;
  std::unique_ptr<harness::SimEngine> engine_;
  std::unique_ptr<harness::SimEngine> parallel_;
  std::vector<std::pair<const topo::Topology*, std::unique_ptr<sim::SimNetwork>>>
      nets_;
  Digest digest_;
  int digested_ = 0;
  int calls_done_ = 0;
  double first_round_err_ = 0.0;
  std::vector<double> pooled_sum_;  ///< per cell-load: sum of run latencies
  std::vector<double> pooled_n_;
  std::vector<std::string> failures_;
  double sim_cycles_ = 0.0;
  double run_cycles_ = 0.0;
  double run_flits_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const Options& o, Tracer& tr) {
  if (o.workload == "whatif") return std::make_unique<WhatIf>(o, tr);
  if (o.workload == "saturation") return std::make_unique<Saturation>(o, tr);
  if (o.workload == "availability")
    return std::make_unique<Availability>(o, tr);
  if (o.workload == "campaign") return std::make_unique<Campaign>(o, tr);
  return nullptr;
}

/// Operations per second of CPU time over `ms`.
double rate(const std::vector<double>& ms, const std::vector<int>& ops) {
  double t = 0.0, n = 0.0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    t += ms[i];
    n += ops[i];
  }
  return t > 0 ? 1000.0 * n / t : 0.0;
}

/// Fixed arithmetic no repository change can move: a host-speed yardstick
/// recorded next to every result.
double calibration_ms() {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 40) * 1e-9;
    }
    volatile double sink = acc;
    (void)sink;
    runs.push_back(ms_since(t0));
  }
  return median(runs);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"whatif", "saturation",
                                                 "availability", "campaign"};
  return names;
}

Outcome run_workload(const Options& opts) {
  Outcome out;
  Tracer tr(opts.trace);
  Tracer quiet(false);

  // Host speed: the fixed speed probe runs before the set-up, every 250 ms
  // of the timed loop and after it.  Every set-up and call time is scaled
  // by kProbeRefMs / (the median of the three probes around it): times are
  // reported at the reference host's speed.  Neighbours on a shared host
  // slow a run's calls by up to 1.9x for seconds or minutes at a time; the
  // probe slows with them, while a repository change cannot move it.
  std::vector<double> probes = {speed_probe_ms()};
  const auto last_probe = [&probes] { return probes.size() - 1; };

  // Set-up: topology, resident and model builds.  The set-up the calls use
  // (traced in a traced run) is the first sample of setup_s; more set-ups
  // are timed for half a second before the timed loop and for 0.1 s in
  // every second of it, so the median sees the host conditions the calls
  // see.
  std::unique_ptr<Workload> w = make_workload(opts, tr);
  if (!w) {
    out.fail("unknown workload " + opts.workload);
    return out;
  }
  std::vector<double> setup_ms = {w->setup_ms()};
  std::vector<std::size_t> setup_probe = {last_probe()};
  const auto setup_burst = [&](double ms, int min_repeats) {
    const auto t0 = Clock::now();
    for (int r = 0; r < min_repeats || ms_since(t0) < ms; ++r) {
      setup_ms.push_back(make_workload(opts, quiet)->setup_ms());
      setup_probe.push_back(last_probe());
    }
  };
  out.note("calibration_ms", calibration_ms());
  const unsigned threads = engine_threads();
  out.note("timed_engine_threads", 1.0);
  out.note("parallel_engine_threads", static_cast<double>(threads));

  if (!opts.trace) {
    if (!opts.minimal) setup_burst(500.0, 4);
    // The timed closed loop; the answer cache starts empty.
    w->reset();
    std::vector<double> call_ms;
    std::vector<int> call_ops;
    std::vector<std::size_t> call_probe;
    const auto start = Clock::now();
    double next_burst_ms = 1000.0, next_probe_ms = 250.0;
    for (int i = 0; ms_since(start) < 1000.0 * opts.seconds; ++i) {
      if (i > 0 && i % kSessionCalls == 0) w->new_session();
      if (ms_since(start) >= next_probe_ms) {
        probes.push_back(speed_probe_ms());
        next_probe_ms += 250.0;
      }
      if (!opts.minimal && ms_since(start) >= next_burst_ms) {
        setup_burst(100.0, 1);
        next_burst_ms += 1000.0;
      }
      const double t0 = thread_cpu_ms();
      const int n = w->call(i);
      call_ms.push_back(thread_cpu_ms() - t0);
      call_probe.push_back(last_probe());
      call_ops.push_back(n);
      out.attempted += n;
    }
    probes.push_back(speed_probe_ms());
    const std::vector<double> scale = probe_scale(probes);
    std::vector<double> ref_ms(call_ms.size()), ref_setup_ms(setup_ms.size());
    for (std::size_t i = 0; i < call_ms.size(); ++i)
      ref_ms[i] = call_ms[i] * scale[call_probe[i]];
    for (std::size_t i = 0; i < setup_ms.size(); ++i)
      ref_setup_ms[i] = setup_ms[i] * scale[setup_probe[i]];
    double cpu_ms = 0.0;
    for (double v : call_ms) cpu_ms += v;
    out.metrics["setup_s"] = median(ref_setup_ms) * 1e-3;
    out.metrics["ops_per_s"] = rate(ref_ms, call_ops);
    out.metrics["call_ms_p50"] = percentile(ref_ms, 50.0);
    out.metrics["call_ms_p95"] = percentile(ref_ms, 95.0);
    // The same figures unscaled, at the host speed the run happened to get.
    out.note("raw.setup_s", median(setup_ms) * 1e-3);
    out.note("raw.ops_per_s", rate(call_ms, call_ops));
    out.note("raw.call_ms_p50", percentile(call_ms, 50.0));
    out.note("raw.call_ms_p95", percentile(call_ms, 95.0));
    out.note("probe_ms_median", median(probes));
    out.note("probes", static_cast<double>(probes.size()));
    out.note("calls", static_cast<double>(call_ms.size()));
    out.note("setup_samples", static_cast<double>(setup_ms.size()));
    out.note("timed_cpu_s", cpu_ms * 1e-3);
    out.note("timed_wall_s", ms_since(start) * 1e-3);
    if (auto* c = dynamic_cast<Campaign*>(w.get()))
      out.note("sim_cycles_per_s", c->sim_cycles() / (cpu_ms * 1e-3));
    w->verify(out);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Phase A: the traced loop's work with tracing off, for half the time
    // (at least the counted prefix) — the untraced reference for the
    // tracing overhead.  Phase B: the same calls again, traced.
    const int prefix = w->prefix_calls();
    w->reset();
    int calls = 0;
    const auto a0 = Clock::now();
    for (TracedCall t; ms_since(a0) < 500.0 * opts.seconds || calls < prefix;
         ++calls) {
      if (calls > 0 && calls % kSessionCalls == 0) w->new_session();
      w->traced_call(calls, quiet, calls < prefix, t, out);
    }
    const double untraced_ms = ms_since(a0);
    w->reset();
    std::vector<TracedCall> tc(static_cast<std::size_t>(calls));
    double wall_ms = 0.0;
    const auto b0 = Clock::now();
    for (int i = 0; i < calls; ++i) {
      if (i > 0 && i % kSessionCalls == 0) w->new_session();
      tr.set_call(i);
      Tracer::Scope s(tr, "bench", "bench.call");
      out.attempted +=
          w->traced_call(i, tr, i < prefix, tc[static_cast<std::size_t>(i)], out);
      wall_ms += s.elapsed_ms();
    }
    const double traced_ms = ms_since(b0);
    tr.set_call(-1);
    auto* campaign = dynamic_cast<Campaign*>(w.get());
    if (campaign)  // the engine's cycles of the traced calls
      out.note("traced_engine_cycles", campaign->sim_cycles());
    w->verify(out);

    // Metrics a workload's layers do not reach are left out here; run.py
    // reports them as 0 from BENCHMARK.json's list.
    constexpr Tracer::Phase kSetUp = Tracer::Phase::SetUp;
    constexpr Tracer::Phase kCalls = Tracer::Phase::Calls;
    auto& m = out.metrics;
    m["topo.build_ms"] = tr.mean_ms("topo.build", kSetUp);
    m["topo.fault_view_ms"] = tr.mean_ms("topo.fault_view", kCalls);
    m["core.build_ms"] = tr.mean_ms("core.build", kSetUp);
    m["core.retune_traffic_ms"] = tr.mean_ms("core.retune_traffic", kCalls);
    m["core.retune_faults_ms"] = tr.mean_ms("core.retune_faults", kCalls);
    m["core.tune_us"] = 1000.0 * tr.mean_ms("core.tune", kCalls);
    m["core.saturation_ms"] = tr.mean_ms("core.saturation", kCalls);
    // Set-up builds (one traced set-up) plus rebuilds the prefix replay ran.
    m["core.build_calls"] = static_cast<double>(tr.count("core.build", kSetUp));
    w->layer_metrics(out, tr);

    double par = 0.0, ser = 0.0;
    std::vector<double> self_ms, straggler;
    for (const TracedCall& t : tc) {
      par += t.parallel_ms;
      ser += t.serial_ms;
      self_ms.push_back(t.serial_ms - t.replay_ms);
      straggler.push_back(t.straggler);
    }
    const double eff = par > 0 ? ser / (threads * par) : 0.0;
    if (campaign) {
      m["harness.sim_engine.parallel_efficiency"] = eff;
      m["harness.sim_engine.straggler_ratio"] = median(straggler);
    } else {
      m["harness.query.self_ms"] = median(self_ms);
      m["harness.query.parallel_efficiency"] = eff;
    }

    const std::map<std::string, double> self = tr.self_ms_by_layer();
    for (const char* layer : {"topo", "core", "sim", "harness", "bench"})
      m[std::string("share.") + layer] =
          wall_ms > 0 && self.count(layer) ? self.at(layer) / wall_ms : 0.0;

    // Same calls, same work: the ops/s ratio is the wall-time ratio.
    m["obs.trace_overhead_pct"] =
        100.0 * (traced_ms / untraced_ms - 1.0);
    out.note("traced_calls", static_cast<double>(calls));
    out.note("counted_prefix_calls", static_cast<double>(prefix));
    out.note("spans", static_cast<double>(tr.spans().size()));
    if (!opts.trace_path.empty() && tr.write_chrome_json(opts.trace_path))
      out.note("trace_file", opts.trace_path);
  }
  return out;
}

}  // namespace perfbench
