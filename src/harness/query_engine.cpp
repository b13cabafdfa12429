#include "harness/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/channels.hpp"
#include "topo/symmetry.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::harness {

namespace {

/// Structural digest of a TrafficSpec delta for variant grouping.  Folds the
/// exact parameter bit patterns (never the lossy name() rendering, so nearby
/// hotspot fractions stay distinct); Permutation folds its full destination
/// map, Matrix its payload identity (two equal-but-distinct matrices simply
/// miss the dedup — never alias it).
std::uint64_t spec_digest(const traffic::TrafficSpec& spec, int procs) {
  std::uint64_t h = util::hash_mix(0x7261666669637173ULL,
                                   static_cast<std::uint64_t>(spec.pattern()));
  h = util::hash_mix_double(h, spec.hotspot_fraction());
  h = util::hash_mix(h, static_cast<std::uint64_t>(spec.hotspot_node()));
  if (spec.pattern() == traffic::Pattern::Permutation) {
    for (int src = 0; src < procs; ++src)
      h = util::hash_mix(
          h, static_cast<std::uint64_t>(spec.fixed_destination(src, procs)));
  }
  if (const traffic::TrafficMatrix* m = spec.matrix_payload())
    h = util::hash_mix(h, reinterpret_cast<std::uintptr_t>(m));
  return h;
}

/// Variant key: which prepared model a query needs.  Starts from the
/// resident baseline's content digest so keys never collide across
/// residents; the arrival axis folds the (effective SCV, batch residual)
/// pair the model actually consumes — two processes indistinguishable to
/// the solver correctly share a variant, and Bernoulli's rate-dependent SCV
/// separates by λ₀ on its own.  `fault_key` is the fault axis
/// (Impl::fault_key: 0 = healthy).
std::uint64_t variant_key(std::uint64_t baseline_digest, const WhatIfQuery& q,
                          int procs, std::uint64_t fault_key) {
  std::uint64_t h = baseline_digest;
  h = util::hash_mix(h, q.traffic ? spec_digest(*q.traffic, procs) : 0);
  h = util::hash_mix_double(h, q.load_scale);
  h = util::hash_mix(h, static_cast<std::uint64_t>(q.lanes));
  h = util::hash_mix(h, static_cast<std::uint64_t>(q.buffer_depth));
  h = util::hash_mix_double(h, q.bandwidth_scale);
  if (q.arrival) {
    h = util::hash_mix(h, 1);
    h = util::hash_mix_double(h, q.arrival->effective_ca2(q.lambda0));
    h = util::hash_mix_double(h, q.arrival->batch_residual());
  }
  return util::hash_mix(h, fault_key);
}

/// Result-cache key: the variant plus the question asked of it.
std::uint64_t answer_key(std::uint64_t vkey, const WhatIfQuery& q) {
  std::uint64_t h = util::hash_mix(vkey, static_cast<std::uint64_t>(q.metric));
  if (q.metric != QueryMetric::Saturation)
    h = util::hash_mix_double(h, q.lambda0);
  return h;
}

bool is_identity(const WhatIfQuery& q) {
  return !q.traffic && q.load_scale == 1.0 && q.lanes == 0 &&
         q.buffer_depth == 0 && q.bandwidth_scale == 1.0 && !q.arrival &&
         (!q.faults || q.faults->empty());
}

/// Fallback row label for availability scenarios: the failed links, e.g.
/// "link 12:3+link 12:4" (a failed switch expands to its links).
std::string fault_label(const topo::FaultSet& faults) {
  std::string s;
  for (const auto& [node, port] : faults.failed_links()) {
    if (!s.empty()) s += "+";
    s += "link " + std::to_string(node) + ":" + std::to_string(port);
  }
  return s.empty() ? "healthy" : s;
}

}  // namespace

struct QueryEngine::Impl {
  struct Resident {
    const topo::Topology* topo = nullptr;
    core::RetunableTrafficModel baseline;
    std::uint64_t digest = 0;     ///< baseline model content digest
    std::uint64_t spec_key = 0;   ///< spec_digest of the baseline spec
    /// Channel orbits for keying single-link faults, built on the first such
    /// query (never here: most residents never see a fault, and the table
    /// would double a small resident's setup).  `ct` stays null when the
    /// resident declares no fault-commuting symmetry.
    bool orbits_built = false;
    std::unique_ptr<topo::ChannelTable> ct;
    topo::SymmetryClasses orbits;

    Resident(const topo::Topology& t, const traffic::TrafficSpec& spec,
             const Options& o)
        : topo(&t), baseline(t, spec, o.solve, o.build) {
      digest = baseline.model().content_digest();
      spec_key = spec_digest(spec, t.num_processors());
    }

    void build_orbits() {
      orbits_built = true;
      std::vector<int> pins;
      if (!topo->symmetry_commutes_with_faults() ||
          !baseline.spec().symmetric(pins))
        return;
      ct = std::make_unique<topo::ChannelTable>(*topo);
      if (!topo::topology_symmetry(*topo, *ct, pins, orbits)) ct.reset();
    }
  };

  /// One prepared model variant of a batch (clone == nullptr: the baseline
  /// itself, untouched).
  struct Variant {
    std::uint64_t key = 0;
    int rep_query = -1;  ///< first query index needing this variant
    std::unique_ptr<core::RetunableTrafficModel> clone;
    core::RetuneReport report;
    QueryCost basis = QueryCost::Reevaluate;
  };

  Options opts;
  std::unique_ptr<util::ThreadPool> pool;  ///< null when serial
  std::vector<std::unique_ptr<Resident>> residents;
  std::unordered_map<std::uint64_t, int> resident_by_key;
  std::unordered_map<std::uint64_t, QueryResult> answers;

  std::uint64_t served = 0, n_memoized = 0, n_reevaluate = 0, n_retune = 0,
                n_rebuild = 0, n_variants = 0;
  double batch_seconds = 0.0;  ///< wall time inside run_batch, for queries/sec

  explicit Impl(Options o) : opts(o) {
    if (opts.parallel) pool = std::make_unique<util::ThreadPool>(opts.threads);
  }

  /// The fault axis of a variant key: 0 when healthy, else the fault set's
  /// content digest (two sets failing the same links share a variant) —
  /// except for ONE failed link under the resident's own spec, on a
  /// topology whose symmetry commutes with faults.  That fault is keyed by
  /// its link orbit, the unordered pair of its two directed channels'
  /// orbit classes, so the first member of each orbit builds the variant
  /// and every other member is served its answer (in-batch Dup, or the
  /// answer cache).  ClassBreakdown keeps the digest: its rows are per
  /// channel, and orbit members permute them.
  std::uint64_t fault_key(Resident& r, const WhatIfQuery& q, int procs) {
    if (!q.faults || q.faults->empty()) return 0;
    const std::uint64_t digest = q.faults->digest();
    if (q.faults->failed_links().size() != 1 ||
        q.metric == QueryMetric::ClassBreakdown ||
        (q.traffic && spec_digest(*q.traffic, procs) != r.spec_key))
      return digest;
    if (!r.orbits_built) r.build_orbits();
    if (!r.ct) return digest;
    const auto [node, port] = q.faults->failed_links().front();
    const auto orbit = [&](int channel) {
      return r.orbits.channel_class[static_cast<std::size_t>(channel)];
    };
    int a = orbit(r.ct->from(node, port));
    int b = orbit(r.ct->into(node, port));
    if (a > b) std::swap(a, b);
    return util::hash_mix(
        util::hash_mix(0x6c696e6b6f726269ULL, static_cast<std::uint64_t>(a)),
        static_cast<std::uint64_t>(b));
  }

  void prepare(const Resident& r, Variant& v, const WhatIfQuery& q) {
    if (is_identity(q)) return;  // basis stays Reevaluate, clone stays null
    v.clone = std::make_unique<core::RetunableTrafficModel>(r.baseline);
    if (q.faults && !q.faults->empty()) {
      // Fault delta first, so a traffic retune in the same query already
      // runs under the degraded routing — the two deltas compose.
      v.report = v.clone->retune_faults(q.faults);
      v.basis = v.report.rebuilt ? QueryCost::Rebuild : QueryCost::Retune;
    }
    if (q.traffic) {
      const core::RetuneReport tr = v.clone->retune_traffic(*q.traffic);
      v.report.rebuilt = v.report.rebuilt || tr.rebuilt;
      v.report.collapsed = v.report.collapsed || tr.collapsed;
      v.report.passes += tr.passes;
      v.report.changed_pairs += tr.changed_pairs;
      if (v.basis != QueryCost::Rebuild)
        v.basis = tr.rebuilt ? QueryCost::Rebuild : QueryCost::Retune;
    }
    if (q.lanes != 0) v.clone->set_uniform_lanes(q.lanes);
    if (q.buffer_depth != 0) v.clone->set_uniform_buffers(q.buffer_depth);
    if (q.bandwidth_scale != 1.0) v.clone->scale_bandwidths(q.bandwidth_scale);
    if (q.load_scale != 1.0) v.clone->scale_injection_rates(q.load_scale);
    if (q.arrival) v.clone->set_injection_process(*q.arrival, q.lambda0);
  }

  QueryResult evaluate(const Resident& r, const Variant& v,
                       const WhatIfQuery& q) {
    const core::GeneralModel& m =
        v.clone ? v.clone->model() : r.baseline.model();
    QueryResult res;
    res.metric = q.metric;
    res.cost = v.basis;
    res.retune = v.report;
    switch (q.metric) {
      case QueryMetric::Latency:
        res.est = m.evaluate(q.lambda0);
        break;
      case QueryMetric::Saturation:
        res.saturation_rate = m.saturation_rate();
        break;
      case QueryMetric::ClassBreakdown: {
        const core::SolveResult sol = m.solve(q.lambda0);
        res.est.stable = sol.stable;
        std::vector<std::string> label_of(
            static_cast<std::size_t>(m.graph.size()));
        for (const auto& [label, id] : m.labels)
          label_of[static_cast<std::size_t>(id)] = label;
        res.breakdown.resize(static_cast<std::size_t>(m.graph.size()));
        for (int id = 0; id < m.graph.size(); ++id) {
          ClassLoadRow& row = res.breakdown[static_cast<std::size_t>(id)];
          const core::ChannelSolution& c =
              sol.channels[static_cast<std::size_t>(id)];
          row.class_id = id;
          row.label = label_of[static_cast<std::size_t>(id)];
          row.rate = m.graph.at(id).rate_per_link * q.lambda0;
          row.utilization = c.utilization;
          row.wait = c.wait;
          row.service_time = c.service_time;
          row.ca2 = c.ca2;
        }
        break;
      }
    }
    return res;
  }
};

QueryEngine::QueryEngine(Options opts) : impl_(std::make_unique<Impl>(opts)) {}

QueryEngine::QueryEngine(const topo::Topology& topo,
                         const traffic::TrafficSpec& base_spec, Options opts)
    : QueryEngine(opts) {
  resident(topo, base_spec);
}

QueryEngine::~QueryEngine() = default;

int QueryEngine::resident(const topo::Topology& topo,
                          const traffic::TrafficSpec& base_spec) {
  WORMNET_EXPECTS(base_spec.check(topo.num_processors()).empty());
  const std::uint64_t key =
      util::hash_mix(reinterpret_cast<std::uintptr_t>(&topo),
                     spec_digest(base_spec, topo.num_processors()));
  const auto it = impl_->resident_by_key.find(key);
  if (it != impl_->resident_by_key.end()) return it->second;
  impl_->residents.push_back(
      std::make_unique<Impl::Resident>(topo, base_spec, impl_->opts));
  const int id = static_cast<int>(impl_->residents.size()) - 1;
  impl_->resident_by_key.emplace(key, id);
  return id;
}

std::size_t QueryEngine::num_residents() const {
  return impl_->residents.size();
}

const core::RetunableTrafficModel& QueryEngine::resident_model(int id) const {
  WORMNET_EXPECTS(id >= 0 &&
                  id < static_cast<int>(impl_->residents.size()));
  return impl_->residents[static_cast<std::size_t>(id)]->baseline;
}

std::vector<QueryResult> QueryEngine::run_batch(
    int resident_id, const std::vector<WhatIfQuery>& queries) {
  WORMNET_SPAN("query_batch", "query");
  WORMNET_EXPECTS(resident_id >= 0 &&
                  resident_id < static_cast<int>(impl_->residents.size()));
  Impl& im = *impl_;
  const auto batch_t0 = std::chrono::steady_clock::now();
  Impl::Resident& r = *im.residents[static_cast<std::size_t>(resident_id)];
  const int procs = r.topo->num_processors();
  const std::size_t n = queries.size();
  std::vector<QueryResult> results(n);

  // Plan (serial, deterministic): group queries into model variants, split
  // them into cached answers, in-batch duplicates and fresh jobs.
  enum class Serve { Cached, Dup, Job };
  std::vector<Serve> serve(n, Serve::Job);
  std::vector<int> variant_of(n, -1);
  std::vector<std::size_t> rep_of(n, 0);  // Dup: index holding the answer
  std::vector<std::uint64_t> akeys(n, 0);
  std::vector<Impl::Variant> variants;
  std::unordered_map<std::uint64_t, int> variant_index;
  std::unordered_map<std::uint64_t, std::size_t> first_with_answer;
  std::vector<std::size_t> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const WhatIfQuery& q = queries[i];
    WORMNET_EXPECTS(q.load_scale > 0.0);
    WORMNET_EXPECTS(q.lanes >= 0);
    WORMNET_EXPECTS(q.buffer_depth >= 0);
    WORMNET_EXPECTS(q.bandwidth_scale > 0.0);
    if (!q.traffic) {
      // spec change validity is checked by retune_traffic itself
    } else {
      WORMNET_EXPECTS(q.traffic->check(procs).empty());
    }
    // A fault set validates its links against ONE topology; a set built
    // against some other fabric would index this resident's ports wrongly.
    WORMNET_EXPECTS(!q.faults || &q.faults->topology() == r.topo);
    const std::uint64_t vkey =
        variant_key(r.digest, q, procs, im.fault_key(r, q, procs));
    const std::uint64_t akey = answer_key(vkey, q);
    akeys[i] = akey;
    if (im.opts.memoize) {
      if (im.answers.count(akey)) {
        serve[i] = Serve::Cached;
        continue;
      }
      const auto [it, fresh] = first_with_answer.emplace(akey, i);
      if (!fresh) {
        serve[i] = Serve::Dup;
        rep_of[i] = it->second;
        continue;
      }
    }
    const auto [vit, vfresh] =
        variant_index.emplace(vkey, static_cast<int>(variants.size()));
    if (vfresh) {
      variants.emplace_back();
      variants.back().key = vkey;
      variants.back().rep_query = static_cast<int>(i);
    }
    variant_of[i] = vit->second;
    jobs.push_back(i);
  }

  // Prepare the variants the jobs actually need (parallel: each prep works
  // on its own baseline clone; determinism rides on the retune APIs' own
  // thread-count-invariance contract).
  const auto prep_one = [&](std::int64_t v) {
    Impl::Variant& variant = variants[static_cast<std::size_t>(v)];
    im.prepare(r, variant, queries[static_cast<std::size_t>(variant.rep_query)]);
  };
  if (im.pool && variants.size() > 1) {
    util::parallel_for(*im.pool, static_cast<std::int64_t>(variants.size()),
                       prep_one);
  } else {
    for (std::size_t v = 0; v < variants.size(); ++v)
      prep_one(static_cast<std::int64_t>(v));
  }

  // Evaluate the fresh jobs.  Pure functions of (model content, λ₀): the
  // schedule can reorder work but never change a result bit.
  const auto eval_one = [&](std::int64_t j) {
    const std::size_t i = jobs[static_cast<std::size_t>(j)];
    results[i] = im.evaluate(
        r, variants[static_cast<std::size_t>(variant_of[i])], queries[i]);
  };
  if (im.pool && jobs.size() > 1) {
    util::parallel_for(*im.pool, static_cast<std::int64_t>(jobs.size()),
                       eval_one);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j)
      eval_one(static_cast<std::int64_t>(j));
  }

  // Fill cached answers and duplicates; commit fresh answers to the cache
  // (serial, input order — deterministic).
  for (std::size_t i = 0; i < n; ++i) {
    switch (serve[i]) {
      case Serve::Cached:
        results[i] = im.answers.at(akeys[i]);
        results[i].cost = QueryCost::Memoized;
        results[i].retune = core::RetuneReport{};
        break;
      case Serve::Dup:
        results[i] = results[rep_of[i]];
        results[i].cost = QueryCost::Memoized;
        results[i].retune = core::RetuneReport{};
        break;
      case Serve::Job:
        if (im.opts.memoize) im.answers.emplace(akeys[i], results[i]);
        break;
    }
    ++im.served;
    switch (results[i].cost) {
      case QueryCost::Memoized: ++im.n_memoized; break;
      case QueryCost::Reevaluate: ++im.n_reevaluate; break;
      case QueryCost::Retune: ++im.n_retune; break;
      case QueryCost::Rebuild: ++im.n_rebuild; break;
    }
  }
  im.n_variants += variants.size();
  im.batch_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - batch_t0)
          .count();
  return results;
}

std::vector<QueryResult> QueryEngine::run_batch(
    const std::vector<WhatIfQuery>& queries) {
  return run_batch(0, queries);
}

QueryResult QueryEngine::run(const WhatIfQuery& query) { return run(0, query); }

QueryResult QueryEngine::run(int resident_id, const WhatIfQuery& query) {
  return run_batch(resident_id, {query}).front();
}

AvailabilityReport QueryEngine::availability_n_minus_1(int resident_id,
                                                       double lambda0) {
  WORMNET_EXPECTS(resident_id >= 0 &&
                  resident_id < static_cast<int>(impl_->residents.size()));
  const topo::Topology& t =
      *impl_->residents[static_cast<std::size_t>(resident_id)]->topo;
  std::vector<std::shared_ptr<const topo::FaultSet>> scenarios;
  std::vector<std::string> labels;
  for (int node = 0; node < t.num_nodes(); ++node) {
    if (t.is_processor(node)) continue;
    for (int port = 0; port < t.num_ports(node); ++port) {
      const int peer = t.neighbor(node, port);
      if (peer == topo::kNoNode || t.is_processor(peer)) continue;
      // Visit each undirected link once, from its canonical (lower) endpoint.
      if (std::make_pair(peer, t.neighbor_port(node, port)) <
          std::make_pair(node, port))
        continue;
      auto fs = std::make_shared<topo::FaultSet>(t);
      fs->fail_link(node, port);
      labels.push_back(fault_label(*fs));
      scenarios.push_back(std::move(fs));
    }
  }
  return availability_scenarios(resident_id, lambda0, std::move(scenarios),
                                std::move(labels));
}

AvailabilityReport QueryEngine::availability_scenarios(
    int resident_id, double lambda0,
    std::vector<std::shared_ptr<const topo::FaultSet>> scenarios,
    std::vector<std::string> labels) {
  WORMNET_EXPECTS(labels.empty() || labels.size() == scenarios.size());
  std::vector<WhatIfQuery> queries;
  queries.reserve(scenarios.size() + 1);
  WhatIfQuery probe;
  probe.metric = QueryMetric::Latency;
  probe.lambda0 = lambda0;
  queries.push_back(probe);  // the healthy baseline, an identity query
  for (const std::shared_ptr<const topo::FaultSet>& fs : scenarios) {
    WORMNET_EXPECTS(fs != nullptr);
    WhatIfQuery q = probe;
    q.faults = fs;
    queries.push_back(std::move(q));
  }
  const std::vector<QueryResult> res = run_batch(resident_id, queries);

  AvailabilityReport report;
  report.lambda0 = lambda0;
  report.baseline = res.front().est;
  report.rows.resize(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    AvailabilityRow& row = report.rows[s];
    row.label = labels.empty() ? fault_label(*scenarios[s]) : labels[s];
    row.faults = scenarios[s];
    row.est = res[s + 1].est;
    row.cost = res[s + 1].cost;
    if (row.est.status == core::SolveStatus::Ok) ++report.scenarios_ok;
  }
  // Worst-first: unroutable demand dominates, then latency.  The status
  // contract guarantees latency is never NaN, so the comparator is a strict
  // weak ordering; stable_sort keeps enumeration order on ties.
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const AvailabilityRow& a, const AvailabilityRow& b) {
                     if (a.est.unroutable_fraction != b.est.unroutable_fraction)
                       return a.est.unroutable_fraction > b.est.unroutable_fraction;
                     return a.est.latency > b.est.latency;
                   });
  return report;
}

std::uint64_t QueryEngine::queries_served() const { return impl_->served; }
std::uint64_t QueryEngine::served_memoized() const { return impl_->n_memoized; }
std::uint64_t QueryEngine::served_reevaluate() const {
  return impl_->n_reevaluate;
}
std::uint64_t QueryEngine::served_retune() const { return impl_->n_retune; }
std::uint64_t QueryEngine::served_rebuild() const { return impl_->n_rebuild; }
std::uint64_t QueryEngine::variants_prepared() const {
  return impl_->n_variants;
}
std::uint64_t QueryEngine::sweep_cache_hits() const { return 0; }
std::uint64_t QueryEngine::sweep_cache_misses() const { return 0; }
std::size_t QueryEngine::answer_cache_size() const {
  return impl_->answers.size();
}
double QueryEngine::batch_seconds() const { return impl_->batch_seconds; }

void QueryEngine::clear_cache() { impl_->answers.clear(); }

void QueryEngine::publish_metrics(obs::Registry& reg,
                                  std::string_view label) const {
  const Impl& im = *impl_;
  std::string l = "engine=";
  l += label;
  // The cost-class histogram as a labeled gauge family: one series per
  // QueryCost, same metric name, so text exporters group them.
  reg.gauge("wormnet_query_served", l + ",cost=memoized")
      .set(static_cast<double>(im.n_memoized));
  reg.gauge("wormnet_query_served", l + ",cost=reevaluate")
      .set(static_cast<double>(im.n_reevaluate));
  reg.gauge("wormnet_query_served", l + ",cost=retune")
      .set(static_cast<double>(im.n_retune));
  reg.gauge("wormnet_query_served", l + ",cost=rebuild")
      .set(static_cast<double>(im.n_rebuild));
  reg.gauge("wormnet_query_served_total", l).set(static_cast<double>(im.served));
  reg.gauge("wormnet_query_variants_prepared", l)
      .set(static_cast<double>(im.n_variants));
  reg.gauge("wormnet_query_residents", l)
      .set(static_cast<double>(im.residents.size()));
  reg.gauge("wormnet_query_answer_cache_size", l)
      .set(static_cast<double>(im.answers.size()));
  reg.gauge("wormnet_query_batch_seconds", l).set(im.batch_seconds);
  reg.gauge("wormnet_query_queries_per_sec", l)
      .set(im.batch_seconds > 0.0
               ? static_cast<double>(im.served) / im.batch_seconds
               : 0.0);
}

}  // namespace wormnet::harness
