// perfbench/src/bench.cpp — see bench.hpp.
#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "util/hash.hpp"

namespace perfbench {

using namespace wormnet;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::below(int n) {
  return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  return util::hash_mix(util::hash_mix(seed, purpose), index);
}

// ----------------------------------------------------------------- digest ---

void Digest::add(std::uint64_t v) { h_ = util::hash_mix(h_, v); }
void Digest::add(double v) { h_ = util::hash_mix_double(h_, v); }
void Digest::add(std::string_view s) { add(util::hash_bytes(s)); }

void Digest::add(const core::LatencyEstimate& est) {
  add(static_cast<std::uint64_t>(est.stable));
  add(static_cast<std::uint64_t>(est.status));
  add(est.latency);
  add(est.inj_wait);
  add(est.inj_service);
  add(est.mean_distance);
  add(est.unroutable_fraction);
}

void Digest::add(const harness::QueryResult& r) {
  add(static_cast<std::uint64_t>(r.metric));
  add(static_cast<std::uint64_t>(r.cost));
  add(r.est);
  add(r.saturation_rate);
  add(static_cast<std::uint64_t>(r.breakdown.size()));
  for (const harness::ClassLoadRow& row : r.breakdown) {
    add(static_cast<std::uint64_t>(row.class_id));
    add(row.label);
    add(row.rate);
    add(row.utilization);
    add(row.wait);
    add(row.service_time);
    add(row.ca2);
  }
  add(static_cast<std::uint64_t>(r.retune.rebuilt));
  add(static_cast<std::uint64_t>(r.retune.collapsed));
  add(static_cast<std::uint64_t>(r.retune.passes));
  add(static_cast<std::uint64_t>(r.retune.changed_pairs));
}

void Digest::add(const harness::AvailabilityReport& rep) {
  add(rep.lambda0);
  add(rep.baseline);
  add(static_cast<std::uint64_t>(rep.scenarios_ok));
  for (const harness::AvailabilityRow& row : rep.rows) {
    add(row.label);
    add(row.est);
    add(static_cast<std::uint64_t>(row.cost));
  }
}

void Digest::add(const sim::SimResult& r) {
  add(static_cast<std::uint64_t>(r.completed));
  add(static_cast<std::uint64_t>(r.saturated));
  add(static_cast<std::uint64_t>(r.truncated));
  add(static_cast<std::uint64_t>(r.cycles_run));
  add(static_cast<std::uint64_t>(r.window_cycles));
  for (const util::RunningStats* s :
       {&r.latency, &r.queue_wait, &r.inj_service, &r.distance}) {
    add(static_cast<std::uint64_t>(s->count()));
    add(s->mean());
    add(s->variance());
    add(s->min());
    add(s->max());
  }
  add(static_cast<std::uint64_t>(r.delivered_messages));
  add(static_cast<std::uint64_t>(r.delivered_flits));
  add(r.throughput_flits_per_pe);
  add(static_cast<std::uint64_t>(r.generated_messages));
  add(static_cast<std::uint64_t>(r.dropped_worms));
  add(static_cast<std::uint64_t>(r.dropped_flits));
  add(static_cast<std::uint64_t>(r.unroutable_messages));
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ------------------------------------------------------------------- gate ---

bool close_rel(double a, double b, double rel) {
  if (!std::isfinite(a) || !std::isfinite(b)) return a == b;
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

namespace {

core::GeneralModel cold_model(const topo::Topology& base,
                              const traffic::TrafficSpec& base_spec,
                              const harness::WhatIfQuery& q) {
  std::optional<topo::FaultedTopology> view;
  if (q.faults && !q.faults->empty()) view.emplace(base, *q.faults);
  const topo::Topology& t = view ? *view : base;
  core::GeneralModel m =
      core::build_traffic_model(t, q.traffic.value_or(base_spec));
  if (q.lanes != 0) m.set_uniform_lanes(q.lanes);
  if (q.buffer_depth != 0) m.set_uniform_buffers(q.buffer_depth);
  if (q.bandwidth_scale != 1.0) {
    std::vector<double> bw(static_cast<std::size_t>(m.graph.size()));
    for (int id = 0; id < m.graph.size(); ++id)
      bw[static_cast<std::size_t>(id)] =
          m.graph.at(id).bandwidth * q.bandwidth_scale;
    m.set_channel_bandwidths(bw);
  }
  if (q.load_scale != 1.0) m.scale_injection_rates(q.load_scale);
  if (q.arrival) m.set_injection_process(*q.arrival, q.lambda0);
  return m;
}

std::string mismatch(const char* what, double engine, double cold) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: engine %.17g vs cold %.17g", what,
                engine, cold);
  return buf;
}

/// Largest finite utilization and wait over the classes of a solve (the
/// breakdown quantities that do not depend on how classes are numbered, so
/// collapsed and dense models compare directly).
std::pair<double, double> peak_load(const std::vector<double>& util,
                                    const std::vector<double>& wait) {
  double u = 0.0, w = 0.0;
  for (double x : util)
    if (std::isfinite(x)) u = std::max(u, x);
  for (double x : wait)
    if (std::isfinite(x)) w = std::max(w, x);
  return {u, w};
}

}  // namespace

std::string check_answer(const topo::Topology& base,
                         const traffic::TrafficSpec& base_spec,
                         const harness::WhatIfQuery& q,
                         const harness::QueryResult& r) {
  const core::GeneralModel m = cold_model(base, base_spec, q);
  switch (q.metric) {
    case harness::QueryMetric::Latency: {
      const core::LatencyEstimate c = core::model_latency(m, q.lambda0, m.opts);
      if (c.status != r.est.status)
        return std::string("status: engine ") + core::to_string(r.est.status) +
               " vs cold " + core::to_string(c.status);
      if (!close_rel(r.est.latency, c.latency))
        return mismatch("latency", r.est.latency, c.latency);
      if (!close_rel(r.est.unroutable_fraction, c.unroutable_fraction))
        return mismatch("unroutable", r.est.unroutable_fraction,
                        c.unroutable_fraction);
      return "";
    }
    case harness::QueryMetric::Saturation: {
      const double c = core::model_saturation_rate(m, m.opts);
      if (!close_rel(r.saturation_rate, c))
        return mismatch("saturation", r.saturation_rate, c);
      return "";
    }
    case harness::QueryMetric::ClassBreakdown: {
      const core::SolveResult sol = m.solve(q.lambda0);
      if (sol.stable != r.est.stable) return "breakdown: stability differs";
      std::vector<double> cu, cw, eu, ew;
      for (const core::ChannelSolution& c : sol.channels) {
        cu.push_back(c.utilization);
        cw.push_back(c.wait);
      }
      for (const harness::ClassLoadRow& row : r.breakdown) {
        eu.push_back(row.utilization);
        ew.push_back(row.wait);
      }
      const auto [cold_u, cold_w] = peak_load(cu, cw);
      const auto [eng_u, eng_w] = peak_load(eu, ew);
      if (!close_rel(eng_u, cold_u))
        return mismatch("breakdown max utilization", eng_u, cold_u);
      if (!close_rel(eng_w, cold_w))
        return mismatch("breakdown max wait", eng_w, cold_w);
      return "";
    }
  }
  return "unknown metric";
}

std::string check_replication(const sim::SimResult& r) {
  if (r.truncated) return "replication truncated by its cycle budget";
  if (!r.completed) return "replication did not complete";
  if (r.generated_messages != r.latency.count() + r.dropped_worms)
    return "generated " + std::to_string(r.generated_messages) +
           " != delivered " + std::to_string(r.latency.count()) +
           " + dropped " + std::to_string(r.dropped_worms);
  return "";
}

// ----------------------------------------------------------------- tracer ---

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& t, const char* layer, const char* name)
    : t_(&t) {
  if (!t.on_) return;
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.call = t.call_;
  s.t0_ns = t.now_ns();
  idx_ = static_cast<int>(t.spans_.size());
  t.spans_.push_back(std::move(s));
  t.open_.push_back(idx_);
}

Tracer::Scope::~Scope() {
  if (idx_ < 0) return;
  Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  s.t1_ns = t_->now_ns();
  t_->open_.pop_back();
  t_->log_.complete(s.name, s.layer, s.t0_ns / 1000,
                    (s.t1_ns - s.t0_ns) / 1000,
                    static_cast<std::uint32_t>(s.call + 1));
}

double Tracer::Scope::elapsed_ms() const {
  if (idx_ < 0) return 0.0;
  const Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  return static_cast<double>(t_->now_ns() - s.t0_ns) * 1e-6;
}

double Tracer::total_ms(std::string_view name, Phase phase) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name && in(s, phase))
      sum += static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6;
  return sum;
}

long Tracer::count(std::string_view name, Phase phase) const {
  long n = 0;
  for (const Span& s : spans_) n += s.name == name && in(s, phase);
  return n;
}

double Tracer::mean_ms(std::string_view name, Phase phase) const {
  const long n = count(name, phase);
  return n ? total_ms(name, phase) / static_cast<double>(n) : 0.0;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].t1_ns - spans_[i].t0_ns) * 1e-6;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(s.t1_ns - s.t0_ns) * 1e-6;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].call >= 0) by_layer[spans_[i].layer] += self[i];
  return by_layer;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  return log_.write(path);
}

// ---------------------------------------------------------------- outcome ---

void Outcome::fail(std::string reason) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(reason));
}

void Outcome::note(const std::string& key, double v) {
  char buf[64];
  if (std::isfinite(v))
    std::snprintf(buf, sizeof buf, "%.10g", v);
  else
    std::snprintf(buf, sizeof buf, "null");
  record[key] = buf;
}

void Outcome::note(const std::string& key, const std::string& v) {
  std::string s = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') s += '\\';
    s += c;
  }
  record[key] = s + "\"";
}

// ------------------------------------------------------------------ stats ---

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::clamp<std::size_t>(idx, 1, v.size());
  return v[idx - 1];
}

double speed_probe_ms() {
  constexpr std::size_t kSlots = 1 << 18;  // 2 MiB of keys
  constexpr std::size_t kSorted = 1 << 15;
  static std::vector<std::uint64_t> table(kSlots);
  static std::vector<double> sorted(kSorted);
  const double t0 = thread_cpu_ms();
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t hits = 0;
  for (int i = 0; i < 100'000; ++i) {  // inserts and lookups, linear probing
    const std::uint64_t key = (next() % 120'000) + 1;
    std::size_t s = (key * 0x9E3779B97F4A7C15ULL) >> 46;
    while (table[s] != 0 && table[s] != key) s = (s + 1) % kSlots;
    hits += table[s] == key;
    table[s] = key;
  }
  for (double& v : sorted) v = static_cast<double>(next() % 1'000'003);
  std::sort(sorted.begin(), sorted.end());
  volatile double sink = sorted[kSorted / 2] + static_cast<double>(hits);
  (void)sink;
  return thread_cpu_ms() - t0;
}

std::vector<double> probe_scale(const std::vector<double>& probe_ms) {
  std::vector<double> scale(probe_ms.size());
  for (std::size_t j = 0; j < probe_ms.size(); ++j) {
    const std::size_t lo = j == 0 ? 0 : j - 1;
    const std::size_t hi = std::min(probe_ms.size(), j + 2);
    scale[j] = kProbeRefMs /
               median(std::vector<double>(
                   probe_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                   probe_ms.begin() + static_cast<std::ptrdiff_t>(hi)));
  }
  return scale;
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
