// wormnet/harness/sweep_engine.hpp
//
// Batched evaluation engine for analytical models: λ-sweeps, load-sweeps,
// saturation-fraction sweeps and model-family sweeps over any
// core::NetworkModel, executed as parallel jobs on a util::ThreadPool.
// Single points and single Eq. 26 searches need no engine: call the model's
// own evaluate(), evaluate_load(), saturation_rate() or saturation_load().
//
// Why an engine instead of a for-loop:
//  * every bench used to hand-roll its own sweep loop; the engine is the
//    one place that owns batching and threading;
//  * model evaluations are pure functions of (model, λ₀), so parallel and
//    serial execution produce BITWISE-identical results (tested) — the
//    engine just reorders work, never arithmetic;
//  * the Eq. 26 search is the model's own saturation_rate(), so a
//    GeneralModel's search shares one compiled SolvePlan across its probes.
//
// The engine keeps no results between calls: within one sweep_lambda call
// repeated λ₀ are evaluated once, but every sweep_saturation_fractions call
// and every family member runs its model's saturation search afresh.  A
// caller that needs one model's saturation twice keeps the first answer.
// Resident what-if services that repeat questions use harness::QueryEngine,
// whose answer cache is the library's one memo layer.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/network_model.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::harness {

/// One evaluated point of a sweep.
struct SweepPoint {
  double lambda0 = 0.0;     ///< injection rate, messages/cycle/PE
  double load_flits = 0.0;  ///< λ₀ · s_f, flits/cycle/PE
  core::LatencyEstimate est;
};

/// One member of a model-family sweep (sweep_family): the model built at one
/// parameter value, its saturation, and its latency curve.  The member owns
/// the model for the caller's convenience.
struct FamilyMember {
  double parameter = 0.0;  ///< the family axis value (e.g. hotspot fraction)
  std::unique_ptr<core::NetworkModel> model;
  double saturation_rate = 0.0;  ///< λ₀* of this member (Eq. 26)
  std::vector<SweepPoint> points;
};

/// Builds the family member model at one parameter value — e.g.
/// `[&](double f) { return build_traffic_model(ft, TrafficSpec::hotspot(f)); }`
/// wrapped in a unique_ptr.
using ModelFactory =
    std::function<std::unique_ptr<core::NetworkModel>(double parameter)>;

/// Builds the family member model at one virtual-channel (lane) count — e.g.
/// `[&](int L) { ft.set_uniform_lanes(L); return build_traffic_model(...); }`.
using LaneModelFactory =
    std::function<std::unique_ptr<core::NetworkModel>(int lanes)>;

/// Builds the family member model tuned to one arrival process — e.g.
/// `[&](const arrivals::ArrivalSpec& p) {
///    auto m = std::make_unique<core::GeneralModel>(base);
///    m->set_injection_process(p);
///    return m; }`.
using ArrivalModelFactory = std::function<std::unique_ptr<core::NetworkModel>(
    const arrivals::ArrivalSpec& process)>;

/// Parallel sweep executor.
class SweepEngine {
 public:
  struct Options {
    unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
    bool parallel = true;  ///< false: evaluate on the calling thread, in order
  };

  SweepEngine() : SweepEngine(Options{}) {}
  explicit SweepEngine(Options opts);

  /// Evaluate every λ₀ in `lambdas`; one SweepPoint per input, same order.
  /// Each distinct λ₀ is evaluated once; the distinct points fan out on the
  /// pool.
  std::vector<SweepPoint> sweep_lambda(const core::NetworkModel& model,
                                       const std::vector<double>& lambdas);
  /// Evaluate every flit load in `loads`; one SweepPoint per input, same order.
  std::vector<SweepPoint> sweep_load(const core::NetworkModel& model,
                                     const std::vector<double>& loads);
  /// Evaluate at the given fractions of the model's saturation rate
  /// (one model.saturation_rate() search per call).
  std::vector<SweepPoint> sweep_saturation_fractions(
      const core::NetworkModel& model, const std::vector<double>& fractions);

  /// Pattern/parameter sweep over a FAMILY of models: build one model per
  /// parameter value (e.g. a hotspot-fraction axis of traffic-aware models),
  /// find each member's saturation rate, and evaluate it at the given
  /// fractions of ITS OWN saturation.  Members are returned in parameter
  /// order and own their models; each member's sweep runs through the same
  /// parallel machinery as the single-model entry points.
  std::vector<FamilyMember> sweep_family(const ModelFactory& make,
                                         const std::vector<double>& parameters,
                                         const std::vector<double>& saturation_fractions);

  /// Lane-count axis: sweep_family over virtual-channel multiplicities (the
  /// capacity-planning axis the multi-lane extension opens).  Each member's
  /// `parameter` is its lane count; the factory decides how lanes enter the
  /// model (set_uniform_lanes + rebuild, or FatTreeModelOptions::lanes).
  std::vector<FamilyMember> sweep_lanes(const LaneModelFactory& make,
                                        const std::vector<int>& lane_counts,
                                        const std::vector<double>& saturation_fractions);

  /// Burstiness axis: sweep_family over arrival processes (the bursty-
  /// arrivals extension's capacity-planning axis).  Each member's model is
  /// built by the factory tuned to that process (typically one
  /// build_traffic_model + per-member set_injection_process retunes, which
  /// are O(channels)); each member's `parameter` is its process's effective
  /// C_a² (the variability parameter the model consumes).  Bernoulli is
  /// rejected: its SCV is 1 − λ₀, which varies across a member's own sweep
  /// points, so it has no single position on this axis.
  std::vector<FamilyMember> sweep_burstiness(
      const ArrivalModelFactory& make,
      const std::vector<arrivals::ArrivalSpec>& processes,
      const std::vector<double>& saturation_fractions);

  /// Number of worker threads backing parallel sweeps (1 when serial).
  unsigned threads() const;

 private:
  /// One family member: `model`'s saturation rate and its points at
  /// `saturation_fractions` of it.
  FamilyMember sweep_member(double parameter,
                            std::unique_ptr<core::NetworkModel> model,
                            const std::vector<double>& saturation_fractions);

  std::unique_ptr<util::ThreadPool> pool_;  ///< null when serial
};

}  // namespace wormnet::harness
