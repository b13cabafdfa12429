// PERF — google-benchmark microbenchmarks of the two engines:
//  * the analytical solver (closed form and general graph) — the payoff of
//    the paper is that these run in microseconds where simulation takes
//    seconds;
//  * the flit-level simulator's cycle throughput at small and Fig. 3 scale,
//    plus the three layers of the simulation-side perf overhaul: idle-cycle
//    fast-forward (vs the forced slow path), SimEngine campaign fan-out
//    (parallel vs serial), and the sharded traffic-model builder (parallel
//    vs serial);
//  * `--json <path>` additionally writes {name, ns/op, counters} records —
//    `./perf_micro --json ../BENCH_perf.json` regenerates the repo-root
//    perf-trajectory file (see README "Performance").
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace wormnet;

void BM_FatTreeClosedFormEvaluate(benchmark::State& state) {
  core::FatTreeModel model(
      {.levels = static_cast<int>(state.range(0)), .worm_flits = 16.0});
  const double load = model.saturation_load() * 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate_load(load).latency);
  }
}
BENCHMARK(BM_FatTreeClosedFormEvaluate)->Arg(3)->Arg(5)->Arg(8);

void BM_FatTreeSaturationSolve(benchmark::State& state) {
  core::FatTreeModel model(
      {.levels = static_cast<int>(state.range(0)), .worm_flits = 16.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.saturation_load());
  }
}
BENCHMARK(BM_FatTreeSaturationSolve)->Arg(5);

void BM_GeneralSolverCollapsedFatTree(benchmark::State& state) {
  // The symmetry-collapsed uniform fat-tree: 2·levels channel classes.
  const topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  const core::GeneralModel net =
      core::build_traffic_model(ft, traffic::TrafficSpec::uniform(), {},
                                {.collapse = core::CollapseMode::Auto});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.evaluate(0.001).latency);
  }
}
BENCHMARK(BM_GeneralSolverCollapsedFatTree)->Arg(5)->Arg(8);

void BM_GeneralSolverMeshPerChannel(benchmark::State& state) {
  topo::Mesh mesh(static_cast<int>(state.range(0)), 2);
  const core::GeneralModel net =
      core::build_traffic_model(mesh, traffic::TrafficSpec::uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.evaluate(0.001).latency);
  }
  state.SetLabel(std::to_string(net.graph.size()) + " channel classes");
}
BENCHMARK(BM_GeneralSolverMeshPerChannel)->Arg(8)->Arg(16);

void BM_GeneralSaturationMeshPerChannel(benchmark::State& state) {
  // One Eq. 26 search (~55 probes) on the per-channel mesh: the graph is
  // compiled into one SolvePlan per search, so this tracks ~55 sweeps plus
  // one BM_GeneralSolverMeshPerChannel's worth of plan building.
  topo::Mesh mesh(static_cast<int>(state.range(0)), 2);
  const core::GeneralModel net =
      core::build_traffic_model(mesh, traffic::TrafficSpec::uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.saturation_rate());
  }
  state.SetLabel(std::to_string(net.graph.size()) + " channel classes");
}
BENCHMARK(BM_GeneralSaturationMeshPerChannel)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_SweepEngineColdSweep(benchmark::State& state) {
  // A 32-point λ-sweep through the engine with caching disabled: the cost
  // of batched dispatch itself.
  core::FatTreeModel model({.levels = 5, .worm_flits = 16.0});
  const double sat = model.saturation_rate();
  std::vector<double> lambdas;
  for (int i = 1; i <= 32; ++i) lambdas.push_back(sat * 0.95 * i / 32);
  harness::SweepEngine engine({0, true, /*memoize=*/false});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.sweep_lambda(model, lambdas).back().est.latency);
  }
}
BENCHMARK(BM_SweepEngineColdSweep)->Unit(benchmark::kMicrosecond);

void BM_SweepEngineMemoizedSweep(benchmark::State& state) {
  // The same sweep with the memo cache hot: the engine's fast path.
  core::FatTreeModel model({.levels = 5, .worm_flits = 16.0});
  const double sat = model.saturation_rate();
  std::vector<double> lambdas;
  for (int i = 1; i <= 32; ++i) lambdas.push_back(sat * 0.95 * i / 32);
  harness::SweepEngine engine;
  engine.sweep_lambda(model, lambdas);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.sweep_lambda(model, lambdas).back().est.latency);
  }
  // Registry-sourced counters: the same series a service would scrape.
  obs::Registry reg;
  engine.publish_metrics(reg, "bench");
  state.counters["cache_hits"] =
      reg.value("wormnet_sweep_cache_hits", "engine=bench");
  state.counters["cache_hit_rate"] =
      reg.value("wormnet_sweep_cache_hit_rate", "engine=bench");
}
BENCHMARK(BM_SweepEngineMemoizedSweep)->Unit(benchmark::kMicrosecond);

void BM_TrafficModelBuildFatTree(benchmark::State& state) {
  // Route enumeration under a DENSE pattern (hotspot: every pair weight is
  // non-zero) on the N = 4^levels fat-tree.  The per-destination flow DP
  // must stay O(N² · hops): sub-second at N = 1024 (levels = 5).  Since the
  // perf overhaul the destinations run as fixed shards on the shared pool
  // (bitwise-identical to serial); this is the default-path (parallel)
  // number — compare BM_TrafficModelBuildFatTreeSerial for the fan-out gain.
  topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_traffic_model(ft, spec).graph.size());
  }
  state.SetLabel("N=" + std::to_string(ft.num_processors()));
}
BENCHMARK(BM_TrafficModelBuildFatTree)->Arg(3)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_TrafficModelBuildFatTreeSerial(benchmark::State& state) {
  // The same build forced serial (threads = 1): the denominator of the
  // builder-parallelization speedup.
  topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.1);
  core::TrafficBuildOptions build;
  build.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_traffic_model(ft, spec, {}, build).graph.size());
  }
  state.SetLabel("N=" + std::to_string(ft.num_processors()));
}
BENCHMARK(BM_TrafficModelBuildFatTreeSerial)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_TrafficModelBuild10Cube(benchmark::State& state) {
  // The same enumeration on the 1024-node e-cube hypercube (long paths,
  // deterministic routing).
  topo::Hypercube hc(10);
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_traffic_model(hc, spec).graph.size());
  }
}
BENCHMARK(BM_TrafficModelBuild10Cube)->Unit(benchmark::kMillisecond);

void BM_TrafficModelBuildCollapsed(benchmark::State& state) {
  // The symmetry-collapsed build of the uniform fat-tree: one route pass per
  // destination ORBIT (uniform has exactly one) folded to 2·levels classes,
  // so the cost is O(channels) — the channel-table walk — instead of the
  // dense path's O(N²·hops).  levels = 10 is the 1,048,576-processor
  // headline: the dense builder would need ~10⁶ full passes.
  topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  const core::TrafficBuildOptions build{.collapse = core::CollapseMode::Auto};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_traffic_model(ft, spec, {}, build).graph.size());
  }
  state.SetLabel("N=" + std::to_string(ft.num_processors()));
}
BENCHMARK(BM_TrafficModelBuildCollapsed)
    ->Arg(5)
    ->Arg(8)
    ->Arg(9)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_TrafficModelBuildCollapsedHotspot(benchmark::State& state) {
  // Hotspot collapse: the pin refines the quotient to levels + 1 destination
  // orbits (one rep pass each), still orders of magnitude under dense.
  topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.1);
  const core::TrafficBuildOptions build{.collapse = core::CollapseMode::Auto};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_traffic_model(ft, spec, {}, build).graph.size());
  }
  state.SetLabel("N=" + std::to_string(ft.num_processors()));
}
BENCHMARK(BM_TrafficModelBuildCollapsedHotspot)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TrafficModelBuildCollapsed10Cube(benchmark::State& state) {
  // The 10-cube folds to dims + 2 = 12 classes under its XOR-translation
  // group; compare BM_TrafficModelBuild10Cube, the dense build of the same
  // network under hotspot (which has no usable hypercube symmetry).
  topo::Hypercube hc(10);
  const traffic::TrafficSpec spec = traffic::TrafficSpec::uniform();
  const core::TrafficBuildOptions build{.collapse = core::CollapseMode::Auto};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_traffic_model(hc, spec, {}, build).graph.size());
  }
}
BENCHMARK(BM_TrafficModelBuildCollapsed10Cube)->Unit(benchmark::kMillisecond);

void BM_SimulatorCyclesPerSecond(benchmark::State& state) {
  topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  sim::SimNetwork net(ft);
  core::FatTreeModel model(
      {.levels = static_cast<int>(state.range(0)), .worm_flits = 16.0});
  sim::SimConfig cfg;
  cfg.load_flits = model.saturation_load() * 0.7;
  cfg.worm_flits = 16;
  cfg.warmup_cycles = 500;  // open-loop runs require a warmup (validated)
  cfg.measure_cycles = 5'000;
  cfg.max_cycles = 100'000;
  cfg.channel_stats = false;
  long cycles = 0;
  for (auto _ : state) {
    cfg.seed++;
    sim::Simulator s(net, cfg);
    const sim::SimResult r = s.run();
    cycles += r.cycles_run;
    benchmark::DoNotOptimize(r.latency.mean());
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorCyclesPerSecond)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_SimulatorIdleFastForward(benchmark::State& state) {
  // Layer-2 proof: the same low-load seeded run with idle-cycle
  // fast-forward active (arg 0) and forced off (arg 1).  At 20% of
  // saturation on the N=16 fat-tree the network is empty most of the time,
  // so the active run covers the same simulated window in a fraction of
  // the wall time — the cycles/s counter measures SIMULATED cycles per
  // wall second (results are bit-identical either way; the sim label
  // carries the proof).
  topo::ButterflyFatTree ft(2);
  sim::SimNetwork net(ft);
  core::FatTreeModel model({.levels = 2, .worm_flits = 16.0});
  sim::SimConfig cfg;
  cfg.load_flits = model.saturation_load() * 0.05;
  cfg.worm_flits = 16;
  cfg.warmup_cycles = 500;  // open-loop runs require a warmup (validated)
  cfg.measure_cycles = 200'000;
  cfg.max_cycles = 2'000'000;
  cfg.channel_stats = false;
  cfg.disable_fast_forward = state.range(0) != 0;
  long cycles = 0;
  for (auto _ : state) {
    cfg.seed++;
    sim::Simulator s(net, cfg);
    const sim::SimResult r = s.run();
    cycles += r.cycles_run;
    benchmark::DoNotOptimize(r.latency.mean());
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.SetLabel(state.range(0) == 0 ? "fast-forward" : "slow-path");
}
BENCHMARK(BM_SimulatorIdleFastForward)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimEngineCampaign(benchmark::State& state) {
  // Layer-1 proof: a 12-cell campaign (4 loads x 3 seed-replications, one
  // shared SimNetwork) through SimEngine — parallel (arg 0) vs serial
  // (arg 1).  On a multi-core host the parallel campaign's wall time
  // divides by the core count; results are bitwise-identical either way
  // (tests/test_perf_guards.cpp).
  topo::ButterflyFatTree ft(2);
  core::FatTreeModel model({.levels = 2, .worm_flits = 16.0});
  std::vector<harness::SimCell> cells;
  for (double frac : {0.2, 0.4, 0.6, 0.8}) {
    harness::SimCell cell;
    cell.topology = &ft;
    cell.cfg.load_flits = model.saturation_load() * frac;
    cell.cfg.worm_flits = 16;
    cell.cfg.seed = 1;
    cell.cfg.warmup_cycles = 500;
    cell.cfg.measure_cycles = 4'000;
    cell.cfg.max_cycles = 100'000;
    cell.cfg.channel_stats = false;
    cell.replications = 3;
    cells.push_back(std::move(cell));
  }
  harness::SimEngine engine({/*threads=*/0, /*parallel=*/state.range(0) == 0});
  std::int64_t sims = 0;
  for (auto _ : state) {
    const auto results = engine.run_cells(cells);
    sims += 12;
    benchmark::DoNotOptimize(results.front().latency.mean);
  }
  state.counters["sims/s"] = benchmark::Counter(
      static_cast<double>(sims), benchmark::Counter::kIsRate);
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(engine.threads()));
  state.SetLabel(state.range(0) == 0 ? "parallel" : "serial");
}
// UseRealTime: the campaign's work runs on the pool's threads, so the
// benchmark (and its rate counters) must clock wall time, not the calling
// thread's CPU time.
BENCHMARK(BM_SimEngineCampaign)->Arg(0)->Arg(1)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_QueueingKernels(benchmark::State& state) {
  double x = 20.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queueing::mg2_wait_wormhole(0.05, x, 16.0));
  }
}
BENCHMARK(BM_QueueingKernels);

void BM_TrafficModelRetuneCa2(benchmark::State& state) {
  // The bursty-arrivals retune path: one O(channels) set_injection_process
  // sweep over the built graph.  This is what makes a burstiness axis cheap
  // — compare BM_TrafficModelBuildFatTree/4, the O(N²·hops) rebuild it
  // replaces (the builder rows above already INCLUDE the one-time SCV
  // self_frac propagation, which rides the same DP as the rates).
  core::GeneralModel net = [] {
    topo::ButterflyFatTree ft(4);
    return core::build_traffic_model(ft, traffic::TrafficSpec::uniform());
  }();
  const arrivals::ArrivalSpec processes[2] = {
      arrivals::ArrivalSpec::batch(4.0),
      arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0)};
  std::size_t i = 0;
  for (auto _ : state) {
    net.set_injection_process(processes[i ^= 1]);
    benchmark::DoNotOptimize(net.injection_ca2);
  }
  state.SetLabel(std::to_string(net.graph.size()) + " channel classes");
}
BENCHMARK(BM_TrafficModelRetuneCa2);

void BM_QueryEngineRetunePattern(benchmark::State& state) {
  // The pattern delta axis at N = 256: a RESIDENT dense model follows a
  // moving hotspot via retune_traffic's signed-delta propagation — only the
  // destinations whose pair weights changed are re-propagated, then the
  // O(channels) assembly re-runs.  Compare BM_TrafficModelBuildFatTree/4,
  // the cold rebuild each move would otherwise cost.
  topo::ButterflyFatTree ft(4);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  const traffic::TrafficSpec targets[2] = {
      traffic::TrafficSpec::hotspot(0.2, 7),
      traffic::TrafficSpec::hotspot(0.2, 3)};
  std::size_t i = 0;
  long passes = 0;
  for (auto _ : state) {
    const auto report = rm.retune_traffic(targets[i ^= 1]);
    passes += report.passes;
    benchmark::DoNotOptimize(rm.model().mean_distance);
  }
  state.counters["passes/op"] = benchmark::Counter(
      static_cast<double>(passes), benchmark::Counter::kAvgIterations);
  state.SetLabel("N=" + std::to_string(ft.num_processors()) + " dense delta");
}
BENCHMARK(BM_QueryEngineRetunePattern)->Unit(benchmark::kMillisecond);

void BM_QueryEngineRetunePatternCollapsed(benchmark::State& state) {
  // The same moving hotspot against a COLLAPSED resident: the new spec
  // keeps the fat-tree symmetry, so each retune is one pass per destination
  // ORBIT (levels + 1 of them) against O(classes) state.
  topo::ButterflyFatTree ft(4);
  core::TrafficBuildOptions build;
  build.collapse = core::CollapseMode::Auto;
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 0),
                                 {}, build);
  const traffic::TrafficSpec targets[2] = {
      traffic::TrafficSpec::hotspot(0.3, 0),
      traffic::TrafficSpec::hotspot(0.2, 0)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rm.retune_traffic(targets[i ^= 1]).collapsed);
  }
  state.SetLabel("N=" + std::to_string(ft.num_processors()) + " orbit path");
}
BENCHMARK(BM_QueryEngineRetunePatternCollapsed)->Unit(benchmark::kMillisecond);

void BM_QueryEngineFaultRetune(benchmark::State& state) {
  // The fault axis at N = 256: a resident dense model alternates between
  // an N−1 up-link failure and the healthy fabric via retune_faults, which
  // cold-rebuilds on the fault view (one pass per destination) and
  // re-applies the recorded tunes — compare BM_TrafficModelBuildFatTree/4,
  // the same build on the healthy fabric.  An N−1 sweep in
  // harness::QueryEngine::availability_n_minus_1 pays this once per link
  // orbit (BM_AvailabilityNMinus1).
  topo::ButterflyFatTree ft(4);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  auto faults = std::make_shared<topo::FaultSet>(ft);
  faults->fail_link(ft.switch_id(1, 0), topo::ButterflyFatTree::kParentPort0);
  const std::shared_ptr<const topo::FaultSet> scenarios[2] = {faults, nullptr};
  std::size_t i = 0;
  long passes = 0;
  for (auto _ : state) {
    const auto report = rm.retune_faults(scenarios[i ^= 1]);
    passes += report.passes;
    benchmark::DoNotOptimize(rm.model().mean_distance);
  }
  state.counters["passes/op"] = benchmark::Counter(
      static_cast<double>(passes), benchmark::Counter::kAvgIterations);
  state.SetLabel("N=" + std::to_string(ft.num_processors()) +
                 " N-1 up-link rebuild");
}
BENCHMARK(BM_QueryEngineFaultRetune)->Unit(benchmark::kMillisecond);

void BM_AvailabilityNMinus1(benchmark::State& state) {
  // One N−1 availability sweep through the QueryEngine, answer cache
  // cleared per iteration: one cold build per link orbit, every other
  // failed link served its orbit's answer.  Rows: 0 = BFT(3), 1 = BFT(4),
  // 2 = hypercube(6), 3 = the dense 8x8 mesh as the control (it declares
  // no fault-commuting symmetry, so it still builds once per link).
  std::unique_ptr<topo::Topology> t;
  switch (state.range(0)) {
    case 0: t = std::make_unique<topo::ButterflyFatTree>(3); break;
    case 1: t = std::make_unique<topo::ButterflyFatTree>(4); break;
    case 2: t = std::make_unique<topo::Hypercube>(6); break;
    default: t = std::make_unique<topo::Mesh>(8, 2); break;
  }
  harness::QueryEngine engine(*t, traffic::TrafficSpec::uniform());
  harness::WhatIfQuery sat_q;
  sat_q.metric = harness::QueryMetric::Saturation;
  const double lambda0 = 0.3 * engine.run(sat_q).saturation_rate;
  const std::uint64_t builds0 = engine.served_rebuild();
  std::size_t scenarios = 0;
  for (auto _ : state) {
    engine.clear_cache();
    const harness::AvailabilityReport rep =
        engine.availability_n_minus_1(0, lambda0);
    scenarios += rep.rows.size();
    benchmark::DoNotOptimize(rep.rows.front().est.latency);
  }
  state.counters["scenarios/s"] = benchmark::Counter(
      static_cast<double>(scenarios), benchmark::Counter::kIsRate);
  state.counters["builds/op"] = benchmark::Counter(
      static_cast<double>(engine.served_rebuild() - builds0),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(t->name());
}
BENCHMARK(BM_AvailabilityNMinus1)
    ->DenseRange(0, 3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_QueryEngineRetuneLanes(benchmark::State& state) {
  // The lane delta axis: set_uniform_lanes is one O(channels) sweep over
  // ChannelClass::lanes — bitwise-identical to a topology rebuild.
  topo::ButterflyFatTree ft(4);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  const int lanes[2] = {4, 2};
  std::size_t i = 0;
  for (auto _ : state) {
    rm.set_uniform_lanes(lanes[i ^= 1]);
    benchmark::DoNotOptimize(rm.model().graph.at(0).lanes);
  }
  state.SetLabel(std::to_string(rm.model().graph.size()) + " channel classes");
}
BENCHMARK(BM_QueryEngineRetuneLanes);

void BM_QueryEngineRetuneLoad(benchmark::State& state) {
  // The load delta axis: scale_injection_rates multiplies every per-link
  // rate — O(channels), composing across calls.
  topo::ButterflyFatTree ft(4);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  const double factors[2] = {1.25, 0.8};
  std::size_t i = 0;
  for (auto _ : state) {
    rm.scale_injection_rates(factors[i ^= 1]);
    benchmark::DoNotOptimize(rm.model().graph.at(0).rate_per_link);
  }
  state.SetLabel(std::to_string(rm.model().graph.size()) + " channel classes");
}
BENCHMARK(BM_QueryEngineRetuneLoad);

void BM_TrafficModelBuildTapered(benchmark::State& state) {
  // The heterogeneous build: a 2:1-tapered fat-tree with 4-flit buffers and
  // unit link latency under the dense hotspot pattern.  Attribute stamping
  // rides the same channel-table walk as the uniform build, so this must
  // track BM_TrafficModelBuildFatTree at the same levels — heterogeneity is
  // free at build time.
  topo::ButterflyFatTree ft(static_cast<int>(state.range(0)));
  ft.set_tier_bandwidth(1, 0.5);
  ft.set_uniform_buffer_depth(4);
  ft.set_uniform_link_latency(1.0);
  const traffic::TrafficSpec spec = traffic::TrafficSpec::hotspot(0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_traffic_model(ft, spec).graph.size());
  }
  state.SetLabel("N=" + std::to_string(ft.num_processors()) + " tapered 2:1");
}
BENCHMARK(BM_TrafficModelBuildTapered)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_QueryEngineRetuneBuffers(benchmark::State& state) {
  // The buffer-depth delta axis: set_uniform_buffers is one O(channels)
  // sweep over ChannelClass::buffer_depth — the QueryEngine's "how shallow
  // can buffers go" axis never rebuilds.
  topo::ButterflyFatTree ft(4);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  const int depths[2] = {4, util::kInfiniteBufferDepth};
  std::size_t i = 0;
  for (auto _ : state) {
    rm.set_uniform_buffers(depths[i ^= 1]);
    benchmark::DoNotOptimize(rm.model().graph.at(0).buffer_depth);
  }
  state.SetLabel(std::to_string(rm.model().graph.size()) + " channel classes");
}
BENCHMARK(BM_QueryEngineRetuneBuffers);

void BM_QueryEngineRetuneBandwidth(benchmark::State& state) {
  // The bandwidth delta axis: scale_bandwidths multiplies every channel
  // class's bandwidth (taper shape preserved) — O(channels), composing.
  topo::ButterflyFatTree ft(4);
  ft.set_tier_bandwidth(1, 0.5);
  core::RetunableTrafficModel rm(ft, traffic::TrafficSpec::hotspot(0.2, 3));
  const double factors[2] = {2.0, 0.5};
  std::size_t i = 0;
  for (auto _ : state) {
    rm.scale_bandwidths(factors[i ^= 1]);
    benchmark::DoNotOptimize(rm.model().graph.at(0).bandwidth);
  }
  state.SetLabel(std::to_string(rm.model().graph.size()) + " channel classes");
}
BENCHMARK(BM_QueryEngineRetuneBandwidth);

void BM_QueryEngineThroughput(benchmark::State& state) {
  // The headline queries/sec number at N = 256: a 256-query operator batch
  // (16 hotspot fractions × 4 load points × 2 lane counts, all latency
  // questions) answered two ways:
  //  * arg 0 — through the QueryEngine with result-memoization OFF (every
  //    query is solved; only the engine's variant grouping and
  //    cheapest-path planning — collapsed retunes here, since hotspot
  //    deltas keep the fat-tree symmetry — do the saving);
  //  * arg 1 — the pre-engine idiom: one cold build_traffic_model per
  //    query, then evaluate (BM_TrafficModelBuildFatTree/4 per question).
  // The acceptance bar is ≥ 100× between the two queries/s counters.
  topo::ButterflyFatTree ft(4);
  std::vector<harness::WhatIfQuery> batch;
  for (int f = 0; f < 16; ++f) {
    for (int l = 0; l < 4; ++l) {
      for (int lanes : {1, 2}) {
        harness::WhatIfQuery q;
        q.traffic = traffic::TrafficSpec::hotspot(0.05 + 0.04 * f, 0);
        q.lambda0 = 0.0008 + 0.0004 * l;
        q.lanes = lanes;
        batch.push_back(q);
      }
    }
  }
  std::int64_t served = 0;
  if (state.range(0) == 0) {
    harness::QueryEngine::Options opts;
    opts.memoize = false;  // honest: no result-cache credit across iterations
    opts.build.collapse = core::CollapseMode::Auto;
    harness::QueryEngine engine(ft, traffic::TrafficSpec::uniform(), opts);
    for (auto _ : state) {
      const auto results = engine.run_batch(batch);
      served += static_cast<std::int64_t>(results.size());
      benchmark::DoNotOptimize(results.front().est.latency);
    }
    // Registry-sourced counters on the --json row: how the engine actually
    // served the batches (cost classes, variants), scraped from the
    // same publish_metrics series a live dashboard reads.
    obs::Registry reg;
    engine.publish_metrics(reg, "bench");
    state.counters["retunes"] =
        reg.value("wormnet_query_served", "engine=bench,cost=retune");
    state.counters["rebuilds"] =
        reg.value("wormnet_query_served", "engine=bench,cost=rebuild");
    state.counters["variants"] =
        reg.value("wormnet_query_variants_prepared", "engine=bench");
  } else {
    for (auto _ : state) {
      double sink = 0.0;
      for (const harness::WhatIfQuery& q : batch) {
        core::GeneralModel net = core::build_traffic_model(ft, *q.traffic);
        if (q.lanes != 0) net.set_uniform_lanes(q.lanes);
        sink += net.evaluate(q.lambda0).latency;
      }
      served += static_cast<std::int64_t>(batch.size());
      benchmark::DoNotOptimize(sink);
    }
  }
  state.counters["queries/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.SetLabel(state.range(0) == 0 ? "retune-served batch"
                                     : "rebuild-per-query");
}
// UseRealTime: batch work runs on the engine's pool threads.
BENCHMARK(BM_QueryEngineThroughput)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ArrivalGapSampling(benchmark::State& state) {
  // ns per sampled inter-arrival gap, per process — the incremental cost a
  // bursty TrafficSource pays over the Poisson baseline (arg 0).
  const arrivals::ArrivalSpec specs[] = {
      arrivals::ArrivalSpec::poisson(),
      arrivals::ArrivalSpec::batch(4.0),
      arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0),
  };
  const arrivals::ArrivalSpec& spec = specs[state.range(0)];
  util::Rng rng = util::Rng::stream(1, 0);
  arrivals::ArrivalState st = spec.init_state(0.05, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.next_gap(st, 0.05, rng));
  }
  state.SetLabel(spec.name());
}
BENCHMARK(BM_ArrivalGapSampling)->Arg(0)->Arg(1)->Arg(2);

/// Console reporter that additionally feeds bench::JsonResultWriter: one
/// {name, ns/op, counters} record per run, written when the run set
/// finishes.  Implemented as a display-reporter wrapper (not a file
/// reporter) so it needs no --benchmark_out plumbing, and only uses API
/// that is stable across the google-benchmark versions in the dev image
/// (1.7) and CI (1.8).
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::vector<std::pair<std::string, double>> counters;
      counters.reserve(run.counters.size());
      for (const auto& [name, counter] : run.counters) {
        counters.push_back({name, static_cast<double>(counter)});
      }
      // Always nanoseconds per iteration, regardless of the benchmark's
      // display unit (GetAdjustedRealTime would be unit-scaled).
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9
              : 0.0;
      writer_.add(run.benchmark_name(), ns_per_op, std::move(counters));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    if (writer_.write(path_)) {
      std::fprintf(stderr, "perf_micro: wrote %zu results to %s\n",
                   writer_.size(), path_.c_str());
    }
  }

 private:
  std::string path_;
  wormnet::bench::JsonResultWriter writer_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = wormnet::bench::take_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonTeeReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}
