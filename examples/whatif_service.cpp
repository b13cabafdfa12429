// whatif_service — a realistic operator session against the resident
// what-if query engine.
//
// The paper's payoff is analytical speed: answers in microseconds where
// simulation takes minutes.  The QueryEngine is the product form of that —
// models stay RESIDENT, and operator questions ("the hotspot moved", "load
// +20%", "lanes 2 → 4", "arrivals turned bursty") are answered by the
// cheapest applicable delta (retune) instead of a rebuild, with repeated
// questions served from cache.
//
// This session runs 200 mixed what-ifs against an N = 256 fat-tree baseline
// and prints per-query latency by cost class plus the aggregate queries/sec
// — the number a capacity-planning inner loop (PAPERS.md, Solnushkin) cares
// about.
//
// --metrics publishes the engine's counters into an obs::Registry after the
// session, prints the live dashboard, and dumps the snapshot next to the
// binary (whatif_metrics.json / .prom) — the service-metering story.
//
//   ./whatif_service [--levels=4] [--queries=200] [--threads=0] [--metrics]
#include <chrono>
#include <cstdio>
#include <vector>

#include "wormnet.hpp"

namespace {

const char* cost_name(wormnet::harness::QueryCost c) {
  switch (c) {
    case wormnet::harness::QueryCost::Memoized: return "memoized";
    case wormnet::harness::QueryCost::Reevaluate: return "reevaluate";
    case wormnet::harness::QueryCost::Retune: return "retune";
    case wormnet::harness::QueryCost::Rebuild: return "rebuild";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wormnet;
  using Clock = std::chrono::steady_clock;
  const util::Args args(argc, argv);
  const int levels = static_cast<int>(args.get_int("levels", 4));
  const int num_queries = static_cast<int>(args.get_int("queries", 200));
  const unsigned threads =
      static_cast<unsigned>(args.get_int("threads", 0));
  const bool metrics = args.get_bool("metrics", false);
  harness::reject_unknown_flags(args);

  topo::ButterflyFatTree ft(levels);
  std::printf("what-if service: butterfly fat-tree, N = %d, uniform baseline\n",
              ft.num_processors());

  harness::QueryEngine::Options opts;
  opts.threads = threads;
  opts.build.collapse = core::CollapseMode::Auto;  // cheapest-path planning
  const auto t_build0 = Clock::now();
  harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform(), opts);
  const double build_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t_build0)
          .count();
  std::printf("resident baseline built in %.2f ms (%s)\n\n", build_ms,
              engine.resident_model(0).collapsed() ? "symmetry-collapsed"
                                                   : "dense");

  // The operator session: a mix the axes were built for.  Fractions, loads
  // and lane counts cycle so some questions repeat exactly (a real console
  // re-asks) and the rest share retuned variants.
  std::vector<harness::WhatIfQuery> session;
  session.reserve(static_cast<std::size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    harness::WhatIfQuery q;
    q.lambda0 = 0.0008 + 0.0003 * (i % 5);
    switch (i % 10) {
      case 0: case 1: case 2: case 3:  // "the hotspot tightened/moved"
        q.traffic = traffic::TrafficSpec::hotspot(0.05 + 0.05 * (i % 8), 0);
        break;
      case 4: case 5:  // "load +20% / -10%"
        q.load_scale = i % 4 == 0 ? 1.2 : 0.9;
        break;
      case 6:  // "what if we pay for 4 virtual channels?"
        q.lanes = 4;
        q.metric = harness::QueryMetric::Saturation;
        break;
      case 7:  // "arrivals turned bursty"
        q.arrival = arrivals::ArrivalSpec::batch(4.0);
        break;
      case 8:  // "where is the load sitting?"
        q.metric = harness::QueryMetric::ClassBreakdown;
        break;
      default:  // plain re-read of the baseline curve
        break;
    }
    session.push_back(q);
  }

  const auto t0 = Clock::now();
  const auto results = engine.run_batch(session);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Per-cost-class accounting.
  int count[4] = {0, 0, 0, 0};
  for (const auto& r : results) count[static_cast<int>(r.cost)]++;
  util::Table table({"cost class", "queries", "share(%)"});
  table.set_precision(1, 0);
  table.set_precision(2, 1);
  for (int c = 0; c < 4; ++c) {
    table.add_row({cost_name(static_cast<harness::QueryCost>(c)),
                   static_cast<double>(count[c]),
                   100.0 * count[c] / static_cast<double>(results.size())});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("session: %zu queries in %.2f ms  →  %.0f queries/s "
              "(%.1f µs/query mean)\n",
              results.size(), wall_ms, 1000.0 * results.size() / wall_ms,
              1000.0 * wall_ms / results.size());
  std::printf("variants prepared: %llu   answer cache: %zu entries, "
              "%llu memoized\n\n",
              static_cast<unsigned long long>(engine.variants_prepared()),
              engine.answer_cache_size(),
              static_cast<unsigned long long>(engine.served_memoized()));

  // A few sample answers, the way a console would render them.
  std::printf("sample answers:\n");
  for (std::size_t i = 0; i < results.size() && i < 8; ++i) {
    const auto& r = results[i];
    switch (r.metric) {
      case harness::QueryMetric::Latency:
        if (r.est.stable)
          std::printf("  q%-3zu [%-10s] latency = %8.3f cycles at λ₀ = %.4f\n",
                      i, cost_name(r.cost), r.est.latency, session[i].lambda0);
        else
          std::printf("  q%-3zu [%-10s] SATURATED at λ₀ = %.4f\n", i,
                      cost_name(r.cost), session[i].lambda0);
        break;
      case harness::QueryMetric::Saturation:
        std::printf("  q%-3zu [%-10s] saturation λ₀* = %.5f msg/cycle/PE\n",
                    i, cost_name(r.cost), r.saturation_rate);
        break;
      case harness::QueryMetric::ClassBreakdown:
        std::printf("  q%-3zu [%-10s] %zu channel classes, max ρ = %.3f\n", i,
                    cost_name(r.cost), r.breakdown.size(),
                    [&] {
                      double m = 0.0;
                      for (const auto& row : r.breakdown)
                        m = std::max(m, row.utilization);
                      return m;
                    }());
        break;
    }
  }

  // Ask the whole session again: the result cache should absorb it.
  const auto t1 = Clock::now();
  const auto replay = engine.run_batch(session);
  const double replay_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
  int memoized = 0;
  for (const auto& r : replay)
    memoized += r.cost == harness::QueryCost::Memoized;
  std::printf("\nreplayed session: %d/%zu memoized in %.2f ms  →  %.0f queries/s\n",
              memoized, replay.size(), replay_ms,
              1000.0 * replay.size() / replay_ms);

  if (metrics) {
    // The live dashboard: publish everything the engine metered into one
    // registry, render the snapshot as a table, and dump it for scraping.
    obs::Registry reg;
    engine.publish_metrics(reg, "whatif");
    const obs::Snapshot snap = reg.snapshot();
    util::Table dash({"metric", "labels", "value"});
    dash.set_precision(2, 3);
    for (const auto& e : snap.entries)
      dash.add_row({e.name, e.labels, e.value});
    std::printf("\n-- metrics dashboard (%zu series) --\n%s\n",
                snap.entries.size(), dash.to_string().c_str());
    const struct { const char* path; std::string text; } dumps[] = {
        {"whatif_metrics.json", obs::to_json(snap)},
        {"whatif_metrics.prom", obs::to_prometheus(snap)}};
    for (const auto& d : dumps) {
      if (std::FILE* f = std::fopen(d.path, "wb")) {
        std::fwrite(d.text.data(), 1, d.text.size(), f);
        std::fclose(f);
        std::printf("wrote %s (%zu bytes)\n", d.path, d.text.size());
      }
    }
  }
  return 0;
}
