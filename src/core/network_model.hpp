// wormnet/core/network_model.hpp
//
// The polymorphic surface of the analytical model: every instantiation —
// the closed-form butterfly fat-tree (§3), the general channel-graph solver
// (§2) over collapsed fat-tree / hypercube / per-channel mesh graphs, and
// any user-built model — implements this one interface, so the sweep engine
// and experiment harness drive all of them uniformly.
//
// Implementations own their topology description, ablation switches and
// arrival tuning; the interface deals only in the paper's observable
// quantities: the latency estimate at an injection rate (Eq. 2/25) and the
// saturation rate (Eq. 26).  No caller caches evaluations behind this
// interface, so a subclass implements name(), worm_flits() and evaluate(),
// may override saturation_rate(), and owes no content digest.
#pragma once

#include <string>

namespace wormnet::core {

/// Structured outcome of an evaluation, so callers never have to parse NaN
/// or Inf out of the numbers.  Precedence when several apply:
/// Infeasible > Saturated > Disconnected > Ok.
enum class SolveStatus {
  Ok,            ///< converged, stable, all demand routable
  Saturated,     ///< some bundle at or past saturation (ρ ≥ 1); waits diverge
  Infeasible,    ///< solver failed to converge / produced non-finite values
  Disconnected,  ///< some offered demand had no surviving path (faults)
};

/// Short stable name for a SolveStatus ("ok", "saturated", ...).
const char* to_string(SolveStatus status);

/// Network-level latency summary (Eq. 2/25):
///     L = mean_j [ W̄_inj(j) + x̄_inj(j) ] + D̄ - 1.
///
/// Contract: latency and inj_wait are never NaN — a diverged or failed
/// solve reports +infinity — and non-finite values appear only with status
/// Saturated or Infeasible.  `stable` remains the quick boolean view
/// (true iff status is Ok or Disconnected: the carried demand is served).
struct LatencyEstimate {
  bool stable = true;
  SolveStatus status = SolveStatus::Ok;
  double latency = 0.0;       ///< L, cycles from generation to tail delivery
  double inj_wait = 0.0;      ///< mean source-queue wait
  double inj_service = 0.0;   ///< mean injection-channel service time
  double mean_distance = 0.0; ///< D̄ in channels
  /// Fraction of offered pair-weight with no surviving path (0 when the
  /// fabric is healthy); the latency above describes the carried demand.
  double unroutable_fraction = 0.0;
};

/// An analytical wormhole-network model evaluated at an injection rate.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Human-readable model identity for reports and logs.
  virtual std::string name() const = 0;

  /// s_f, the worm length in flits this model was configured with.
  virtual double worm_flits() const = 0;

  /// Evaluate at λ₀ messages/cycle/processor.
  virtual LatencyEstimate evaluate(double lambda0) const = 0;

  /// Evaluate at a load expressed in flits/cycle/processor (Fig. 3's x-axis).
  LatencyEstimate evaluate_load(double load_flits) const;

  /// Saturation injection rate λ₀* solving Eq. 26 (λ₀ · x̄_inj(λ₀) = 1) by
  /// bisection.  The default implementation brackets from 1/s_f (the
  /// injection channel can never serve faster than one worm per s_f cycles);
  /// implementations may override with a cheaper closed form.
  virtual double saturation_rate() const;

  /// Saturation throughput in flits/cycle/processor (λ₀* · s_f).
  double saturation_load() const;
};

}  // namespace wormnet::core
