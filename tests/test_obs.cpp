// Observability layer tests: registry semantics, snapshot determinism under
// the thread pool, histogram bucket edges, exporter well-formedness, trace
// span mechanics, the per-subsystem log routing, and — the hard contract —
// that the simulator's opt-in worm trace is zero-overhead when off: a
// seeded run with tracing enabled is bit-identical to the same run with it
// disabled (the trace observes; it never perturbs).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/general_model.hpp"
#include "core/traffic_model.hpp"
#include "harness/query_engine.hpp"
#include "obs/adapters.hpp"
#include "obs/log_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/fault.hpp"
#include "traffic/traffic_spec.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace wormnet {
namespace {

// ---------------------------------------------------------------- registry

TEST(ObsRegistry, CounterGaugeBasics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("events_total");
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(reg.value("events_total"), 5.0);

  obs::Gauge& g = reg.gauge("queue_depth", "engine=a");
  g.set(17.5);
  EXPECT_DOUBLE_EQ(reg.value("queue_depth", "engine=a"), 17.5);
  // Same name, different labels: an independent series.
  reg.gauge("queue_depth", "engine=b").set(3.0);
  EXPECT_DOUBLE_EQ(reg.value("queue_depth", "engine=a"), 17.5);
  EXPECT_DOUBLE_EQ(reg.value("queue_depth", "engine=b"), 3.0);
  EXPECT_EQ(reg.size(), 3u);

  // Get-or-register returns the SAME metric.
  EXPECT_EQ(&reg.counter("events_total"), &c);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);                       // zeroed in place
  EXPECT_DOUBLE_EQ(reg.value("queue_depth", "engine=a"), 0.0);
  EXPECT_EQ(reg.size(), 3u);                      // registrations survive
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.counter("h"), std::logic_error);
  // Same histogram, different edges: also a registration bug.
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), std::logic_error);
  // Same edges: fine, it's the same metric.
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
}

TEST(ObsHistogram, BucketEdgeSemantics) {
  obs::Registry reg;
  // Bucket i counts x <= edges[i]; the last bucket is the overflow.
  obs::HistogramMetric& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (inclusive upper edge)
  h.observe(1.001); // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(99.0);  // overflow
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 4.0 + 99.0);

  EXPECT_THROW(obs::HistogramMetric(std::vector<double>{}), std::logic_error);
  EXPECT_THROW(obs::HistogramMetric(std::vector<double>{2.0, 1.0}),
               std::logic_error);
}

// Snapshot order is (name, labels)-sorted regardless of which thread
// registered first: hammer the registry from the pool with a
// thread-dependent registration order and require identical snapshots.
TEST(ObsRegistry, SnapshotDeterministicUnderThreadPool) {
  auto run_once = [](unsigned threads) {
    obs::Registry reg;
    util::ThreadPool pool(threads);
    util::parallel_for(pool, 64, [&](std::int64_t i) {
      const std::string name = "metric_" + std::to_string(i % 8);
      const std::string labels = "worker=" + std::to_string(i % 4);
      reg.counter(name, labels).add(static_cast<std::uint64_t>(i % 8) + 1);
      reg.gauge("gauge_" + std::to_string(i % 3)).set(1.0);
      reg.histogram("hist", {1.0, 10.0}).observe(static_cast<double>(i % 16));
    });
    return reg.snapshot();
  };
  const obs::Snapshot a = run_once(2);
  const obs::Snapshot b = run_once(7);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].name, b.entries[i].name);
    EXPECT_EQ(a.entries[i].labels, b.entries[i].labels);
    EXPECT_EQ(a.entries[i].kind, b.entries[i].kind);
    EXPECT_EQ(a.entries[i].value, b.entries[i].value);
    EXPECT_EQ(a.entries[i].buckets, b.entries[i].buckets);
  }
  // And sorted: snapshot order is the map order.
  for (std::size_t i = 1; i < a.entries.size(); ++i) {
    EXPECT_LE(std::make_pair(a.entries[i - 1].name, a.entries[i - 1].labels),
              std::make_pair(a.entries[i].name, a.entries[i].labels));
  }
}

// --------------------------------------------------------------- exporters

obs::Snapshot exporter_fixture() {
  obs::Registry reg;
  reg.counter("hits_total", "engine=sweep").add(42);
  reg.gauge("rate").set(0.125);
  obs::HistogramMetric& h = reg.histogram("wait", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  return reg.snapshot();
}

TEST(ObsExport, JsonShape) {
  const std::string json = obs::to_json(exporter_fixture());
  // Lightweight well-formedness: balanced braces/brackets, no trailing
  // comma before a closer, and the expected keys present.
  int brace = 0, bracket = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    brace += ch == '{';
    brace -= ch == '}';
    bracket += ch == '[';
    bracket -= ch == ']';
    if (ch == ',') {
      std::size_t j = i + 1;
      while (j < json.size() && (json[j] == ' ' || json[j] == '\n')) ++j;
      ASSERT_TRUE(j < json.size() && json[j] != '}' && json[j] != ']')
          << "trailing comma at offset " << i;
    }
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_NE(json.find("\"hits_total\""), std::string::npos);
  EXPECT_NE(json.find("\"engine=sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"histogram\""), std::string::npos);
}

TEST(ObsExport, CsvShape) {
  const std::string csv = obs::to_csv(exporter_fixture());
  EXPECT_EQ(csv.find("name,labels,kind,value,count"), 0u);
  // Header + 3 metrics.
  int lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 4);
}

TEST(ObsExport, PrometheusCumulativeBuckets) {
  const std::string prom = obs::to_prometheus(exporter_fixture());
  EXPECT_NE(prom.find("# TYPE hits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("hits_total{engine=\"sweep\"} 42"), std::string::npos);
  // `le` buckets are cumulative and end at +Inf == count.
  EXPECT_NE(prom.find("wait_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("wait_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("wait_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("wait_count 3"), std::string::npos);
}

// ------------------------------------------------------------------- trace

TEST(ObsTrace, ScopedTimerInertWhenOff) {
  obs::set_tracing(false);
  const std::size_t before = obs::default_trace().size();
  {
    WORMNET_SPAN("should_not_record", "test");
  }
  EXPECT_EQ(obs::default_trace().size(), before);
}

TEST(ObsTrace, ExplicitLogRecordsSpan) {
  obs::TraceLog log;
  {
    obs::ScopedTimer t("solve", "core", &log);
  }
  log.instant("marker", "test", 123, 5, 2);
  ASSERT_EQ(log.size(), 2u);
  const std::vector<obs::TraceEvent> ev = log.events();
  EXPECT_EQ(ev[0].name, "solve");
  EXPECT_EQ(ev[0].ph, 'X');
  EXPECT_GE(ev[0].dur, 0);
  EXPECT_EQ(ev[1].ph, 'i');
  EXPECT_EQ(ev[1].ts, 123);
  EXPECT_EQ(ev[1].tid, 5u);
  EXPECT_EQ(ev[1].pid, 2u);
}

TEST(ObsTrace, ChromeJsonWellFormed) {
  obs::TraceLog log;
  log.complete("a \"quoted\" name\\slash", "cat", 0, 10);
  log.instant("drop", "worm.drop", 42, 3, 2);
  const std::string json = log.chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\""), 0u);
  int brace = 0, bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;          // skip the escaped character
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    brace += ch == '{';
    brace -= ch == '}';
    bracket += ch == '[';
    bracket -= ch == ']';
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

// --------------------------------------------------------------- log sinks

TEST(ObsLog, PerSubsystemLevelsAndCountingSink) {
  obs::Registry reg;
  obs::CountingLogSink sink(reg, /*forward=*/false);
  obs::set_log_sink(&sink);
  util::set_log_level(util::LogLevel::Warn);              // the global default
  util::set_log_level(util::Subsystem::Sim, util::LogLevel::Error);
  util::set_log_level(util::Subsystem::Core, util::LogLevel::Debug);

  WORMNET_LOG_SUB(Sim, Warn) << "filtered: sim is at Error";
  WORMNET_LOG_SUB(Sim, Error) << "counted";
  WORMNET_LOG_SUB(Core, Debug) << "counted: core overrides down to Debug";
  WORMNET_LOG_SUB(Topo, Info) << "filtered: topo follows the global Warn";
  WORMNET_LOG(Warn) << "counted under general";

  obs::set_log_sink(nullptr);
  util::clear_subsystem_log_levels();

  EXPECT_DOUBLE_EQ(
      reg.value("wormnet_log_messages_total", "subsystem=sim,level=error"), 1.0);
  EXPECT_DOUBLE_EQ(
      reg.value("wormnet_log_messages_total", "subsystem=sim,level=warn"), 0.0);
  EXPECT_DOUBLE_EQ(
      reg.value("wormnet_log_messages_total", "subsystem=core,level=debug"), 1.0);
  EXPECT_DOUBLE_EQ(
      reg.value("wormnet_log_messages_total", "subsystem=topo,level=info"), 0.0);
  EXPECT_DOUBLE_EQ(
      reg.value("wormnet_log_messages_total", "subsystem=general,level=warn"),
      1.0);
}

// ------------------------------------------------------- solver telemetry

TEST(ObsTelemetry, SolveTelemetryAndPublish) {
  topo::ButterflyFatTree ft(3);
  core::SolveOptions opts;
  opts.worm_flits = 16.0;
  const core::GeneralModel model =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), opts);
  const double sat = core::model_saturation_rate(model, opts);

  const core::SolveResult mid = core::model_solve(model, 0.5 * sat, opts);
  ASSERT_TRUE(mid.stable);
  EXPECT_GT(mid.telemetry.max_utilization, 0.0);
  EXPECT_LT(mid.telemetry.max_utilization, 1.0);
  EXPECT_GE(mid.telemetry.max_utilization_class, 0);
  EXPECT_EQ(mid.telemetry.first_saturated_class, -1);
  EXPECT_STREQ(mid.telemetry.saturation_cause, "");

  const core::SolveResult over = core::model_solve(model, 1.5 * sat, opts);
  ASSERT_FALSE(over.stable);
  EXPECT_GE(over.telemetry.first_saturated_class, 0);
  EXPECT_STRNE(over.telemetry.saturation_cause, "");

  obs::Registry reg;
  obs::publish_solve(reg, mid, "mid");
  obs::publish_solve(reg, over, "over");
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("wormnet_solve_max_utilization", "model=mid"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("wormnet_solve_stable", "model=mid")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.find("wormnet_solve_stable", "model=over")->value, 0.0);
  const obs::SnapshotEntry* util_hist =
      snap.find("wormnet_solve_channel_utilization", "model=mid");
  ASSERT_NE(util_hist, nullptr);
  EXPECT_EQ(util_hist->kind, obs::MetricKind::Histogram);
  EXPECT_GT(util_hist->count, 0u);
}

// A collapsed resident entering a degraded state rebuilds dense — and must
// say so: the global-registry Rebuild counter ticks once per dense rebuild.
TEST(ObsTelemetry, CollapsedFaultFallbackCountsRebuild) {
  topo::ButterflyFatTree ft(3);
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel resident(ft, traffic::TrafficSpec::uniform(),
                                       {}, build);
  ASSERT_TRUE(resident.collapsed());

  const double before = obs::Registry::global().value(
      "wormnet_collapsed_fault_dense_rebuilds_total", "reason=broken-symmetry");
  auto fs = std::make_shared<topo::FaultSet>(ft);
  fs->fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  const core::RetuneReport rep = resident.retune_faults(fs);
  EXPECT_TRUE(rep.rebuilt);
  EXPECT_FALSE(resident.collapsed());
  const double after = obs::Registry::global().value(
      "wormnet_collapsed_fault_dense_rebuilds_total", "reason=broken-symmetry");
  EXPECT_DOUBLE_EQ(after, before + 1.0);
}

// An N−1 sweep on a collapsed resident (whatif_service's configuration)
// rebuilds dense once per link orbit, not once per link: BFT(4) under
// uniform traffic has 224 failable links in 3 orbits.
TEST(ObsTelemetry, CollapsedNMinus1RebuildsOncePerLinkOrbit) {
  topo::ButterflyFatTree ft(4);
  harness::QueryEngine::Options opts;
  opts.build.collapse = core::CollapseMode::Auto;
  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform(), opts);
  ASSERT_TRUE(engine.resident_model(0).collapsed());
  const double lambda0 =
      0.3 * core::model_saturation_rate(engine.resident_model(0).model(),
                                        opts.solve);

  const double before = obs::Registry::global().value(
      "wormnet_collapsed_fault_dense_rebuilds_total", "reason=broken-symmetry");
  const harness::AvailabilityReport rep =
      engine.availability_n_minus_1(0, lambda0);
  const double after = obs::Registry::global().value(
      "wormnet_collapsed_fault_dense_rebuilds_total", "reason=broken-symmetry");
  EXPECT_EQ(rep.rows.size(), 224u);
  EXPECT_EQ(engine.served_rebuild(), 3u);
  EXPECT_DOUBLE_EQ(after, before + 3.0);
  EXPECT_TRUE(engine.resident_model(0).collapsed());
}

// ---------------------------------------------- zero-overhead-off goldens

sim::SimConfig seeded_open_loop() {
  sim::SimConfig cfg;
  cfg.load_flits = 0.05;
  cfg.worm_flits = 16;
  cfg.seed = 1234;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 3000;
  cfg.max_cycles = 100000;
  cfg.channel_stats = true;
  return cfg;
}

// The worm-lifecycle trace must be pure observation: the same seeded run
// with cfg.trace set produces a bit-identical SimResult to the run without
// it (so every pre-existing golden stays valid with tracing compiled in).
TEST(ObsSim, TraceIsZeroOverheadOnResults) {
  topo::ButterflyFatTree ft(3);
  sim::SimNetwork net(ft);

  sim::Simulator plain(net, seeded_open_loop());
  const sim::SimResult off = plain.run();

  obs::TraceLog trace;
  sim::SimConfig cfg = seeded_open_loop();
  cfg.trace = &trace;
  sim::Simulator traced(net, cfg);
  const sim::SimResult on = traced.run();

  // Bitwise comparison of every statistic the goldens use.
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.saturated, on.saturated);
  EXPECT_EQ(off.cycles_run, on.cycles_run);
  EXPECT_EQ(off.delivered_messages, on.delivered_messages);
  EXPECT_EQ(off.delivered_flits, on.delivered_flits);
  EXPECT_EQ(off.generated_messages, on.generated_messages);
  EXPECT_EQ(off.latency.count(), on.latency.count());
  EXPECT_EQ(off.latency.mean(), on.latency.mean());          // exact ==
  EXPECT_EQ(off.latency.stddev(), on.latency.stddev());
  EXPECT_EQ(off.queue_wait.mean(), on.queue_wait.mean());
  EXPECT_EQ(off.inj_service.mean(), on.inj_service.mean());
  EXPECT_EQ(off.throughput_flits_per_pe, on.throughput_flits_per_pe);
  ASSERT_EQ(off.channels.size(), on.channels.size());
  for (std::size_t i = 0; i < off.channels.size(); ++i) {
    EXPECT_EQ(off.channels[i].worms, on.channels[i].worms);
    EXPECT_EQ(off.channels[i].busy_cycles, on.channels[i].busy_cycles);
    EXPECT_EQ(off.channels[i].flits, on.channels[i].flits);
  }

  // And the traced run actually recorded worm lifecycles.
  EXPECT_GT(trace.size(), 0u);
  bool saw_flight = false;
  for (const obs::TraceEvent& e : trace.events()) {
    EXPECT_EQ(e.pid, 2u);  // sim timebase
    if (e.cat == "worm.flight") saw_flight = true;
  }
  EXPECT_TRUE(saw_flight);

  // publish_sim turns the per-channel export into registry series.
  obs::Registry reg;
  obs::publish_sim(reg, on, "golden");
  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* util_hist =
      snap.find("wormnet_sim_channel_utilization", "run=golden");
  ASSERT_NE(util_hist, nullptr);
  EXPECT_EQ(util_hist->count, on.channels.size());
  EXPECT_DOUBLE_EQ(
      snap.find("wormnet_sim_delivered_messages", "run=golden")->value,
      static_cast<double>(on.delivered_messages));
}

}  // namespace
}  // namespace wormnet
