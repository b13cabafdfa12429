#include "core/general_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/saturation.hpp"
#include "obs/trace.hpp"
#include "queueing/channel_solver.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"

namespace wormnet::core {

namespace {

using queueing::ChannelSolver;

/// Σ w·value_of(id) / Σ w over the injection classes, with uniform weights
/// when `weights` is empty: the Eq. 2 average that estimate_latency and the
/// saturation probes both take, so the two agree bit for bit.
template <class ValueOf>
double injection_average(const std::vector<int>& injection_classes,
                         const std::vector<double>& weights, ValueOf value_of) {
  WORMNET_EXPECTS(!injection_classes.empty());
  WORMNET_EXPECTS(weights.empty() || weights.size() == injection_classes.size());
  double sum = 0.0;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < injection_classes.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    sum += w * value_of(injection_classes[i]);
    weight_sum += w;
  }
  WORMNET_EXPECTS(weight_sum > 0.0);
  return sum / weight_sum;
}

}  // namespace

SolvePlan::SolvePlan(const ChannelGraph& graph, const SolveOptions& opts)
    : solver_(opts.worm_flits, opts.ablation), opts_(opts) {
  WORMNET_EXPECTS(graph.validate().empty());
  const int n = graph.size();
  std::size_t edge_count = 0;
  for (int id = 0; id < n; ++id) edge_count += graph.at(id).next.size();
  classes_.reserve(static_cast<std::size_t>(n));
  edge_begin_.reserve(static_cast<std::size_t>(n) + 1);
  edges_.reserve(edge_count);
  edge_begin_.push_back(0);
  for (int id = 0; id < n; ++id) {
    const ChannelClass& c = graph.at(id);
    const double floor = solver_.drain_floor(c.bandwidth, c.buffer_depth);
    // On a slow or credit-limited link (drain floor > 0) extra lanes
    // neither add capacity nor shorten the head-of-line wait — equal-length
    // worms time-sharing a bandwidth-limited link finish no sooner on
    // average than in FIFO order — so waits and occupancy treat the channel
    // as single-lane and the sharing stretch lives in lane_share_factor
    // instead.  Unit links keep their true lane count.
    classes_.push_back({c.servers, c.lanes, floor > 0.0 ? 1 : c.lanes,
                        c.buffer_depth, c.terminal, c.rate_per_link, c.ca2,
                        c.bandwidth, floor, solver_.hop_excess(c.link_latency)});
    for (const Transition& t : c.next) {
      // Eq. 9/10 factor, discounted by the target's lane multiplicity (an
      // L-lane channel blocks only when all L lanes are held) and by its
      // finite buffer credit B/(B+b).  True lane count here, not
      // model_lanes: an L-lane slow link still lets an arriving worm slip
      // past a blocked one.
      const ChannelClass& to = graph.at(t.target);
      edges_.push_back({t.target, t.weight,
                        solver_.blocking_factor(to.servers, to.lanes,
                                                c.rate_per_link, to.rate_per_link,
                                                t.route_prob, to.bandwidth,
                                                to.buffer_depth)});
    }
    edge_begin_.push_back(edges_.size());
  }
  order_ = graph.reverse_topological_order();
}

/// W̄ of the bundle serving class `id` at its arrival SCV (the bursty-
/// arrivals extension; ca2 == 1 reproduces the paper's Poisson wait bit for
/// bit).
double SolvePlan::wait_of(std::size_t id, double xbar, double injection_scale) const {
  const Class& c = classes_[id];
  return solver_.bundle_wait(c.servers, c.model_lanes, c.unit_rate * injection_scale,
                             xbar, c.ca2);
}

/// One evaluation of Eq. 11 for class `id` given current service times, plus
/// the heterogeneous-link terms of the channel itself: the lane-multiplexing
/// stretch and pipeline latency add to the composed time, while the
/// slow/credit-limited drain enters as a FLOOR — a rigid worm pipelines
/// through consecutive slow links at the bottleneck rate, so the drain
/// stretch of a path is the max over its channels, never the sum (see
/// ChannelSolver::drain_floor).  All terms vanish in the paper's uniform
/// single-lane network — the exact recurrence.
double SolvePlan::compose(std::size_t id, double injection_scale,
                          const std::vector<double>& x,
                          const std::vector<double>& waits) const {
  const Class& c = classes_[id];
  double excess = c.hop_excess;
  double xi;
  if (c.terminal) {
    xi = solver_.terminal_service();
  } else {
    xi = 0.0;
    for (std::size_t k = edge_begin_[id]; k < edge_begin_[id + 1]; ++k) {
      const Edge& e = edges_[k];
      const auto j = static_cast<std::size_t>(e.target);
      xi += e.weight * (x[j] + ChannelSolver::wait_term(e.blocking, waits[j]));
    }
  }
  if (c.drain_floor > 0.0) {
    // Non-default link: lane sharing stretches the bottleneck drain itself,
    // and the stretched floor max-composes like the plain one.  The u ≥ 1
    // guard inside the factor (+inf) is what saturates a tapered tier.
    const double shared =
        c.drain_floor * solver_.lane_share_factor(c.lanes,
                                                  c.unit_rate * injection_scale,
                                                  c.bandwidth, c.buffer_depth);
    if (shared > xi) xi = shared;  // this channel is the path bottleneck
  } else {
    excess += solver_.lane_excess(c.lanes, c.unit_rate * injection_scale);
  }
  return xi + excess;
}

SolvePlan::SweepStats SolvePlan::sweep(double injection_scale,
                                       std::vector<double>& x,
                                       std::vector<double>& waits) const {
  WORMNET_EXPECTS(injection_scale >= 0.0);
  const std::size_t n = classes_.size();
  x.assign(n, solver_.worm_flits());
  waits.assign(n, 0.0);
  SweepStats stats;
  if (!order_.empty()) {
    // Acyclic: one exact backward sweep, terminals first (the paper's §2.1
    // "service times are resolved in the reverse order of the channels
    // traversed").  Successors are already final; compose this class's x̄
    // from them, then evaluate its bundle's wait at that final x̄.
    for (int order_id : order_) {
      const auto id = static_cast<std::size_t>(order_id);
      x[id] = compose(id, injection_scale, x, waits);
      waits[id] = wait_of(id, x[id], injection_scale);
    }
    return stats;
  }
  // Cyclic dependency graph: damped fixed-point iteration.
  stats.iterations = 0;
  stats.converged = false;
  for (int it = 0; it < opts_.max_iterations; ++it) {
    double max_delta = 0.0;
    for (std::size_t id = 0; id < n; ++id) waits[id] = wait_of(id, x[id], injection_scale);
    for (std::size_t id = 0; id < n; ++id) {
      const double next = compose(id, injection_scale, x, waits);
      const double cur = x[id];
      double blended = cur + opts_.damping * (next - cur);
      if (std::isinf(next)) blended = next;  // saturation dominates damping
      max_delta = std::max(max_delta, std::abs(blended - cur));
      x[id] = blended;
    }
    stats.iterations = it + 1;
    stats.max_residual = max_delta;
    if (max_delta < opts_.tolerance || std::isinf(max_delta) || std::isnan(max_delta)) {
      stats.converged = max_delta < opts_.tolerance;
      break;
    }
  }
  for (std::size_t id = 0; id < n; ++id) waits[id] = wait_of(id, x[id], injection_scale);
  return stats;
}

SolveResult SolvePlan::solve(double injection_scale) const {
  std::vector<double> x;
  std::vector<double> waits;
  const SweepStats stats = sweep(injection_scale, x, waits);
  SolveResult result;
  result.iterations = stats.iterations;
  result.converged = stats.converged;
  result.telemetry.max_residual = stats.max_residual;

  const std::size_t n = classes_.size();
  result.channels.assign(n, {});
  for (std::size_t id = 0; id < n; ++id) {
    const Class& c = classes_[id];
    ChannelSolution& sol = result.channels[id];
    sol.service_time = x[id];
    sol.wait = waits[id];
    sol.utilization = solver_.bundle_utilization(
        c.servers, c.model_lanes, c.unit_rate * injection_scale, sol.service_time);
    sol.cb2 = solver_.cb2(sol.service_time);
    // Report the SCV the wait was actually evaluated at: with the
    // bursty_arrivals ablation off the kernel used the Poisson value, not
    // the graph's tuned one.
    sol.ca2 = opts_.ablation.bursty_arrivals ? c.ca2 : 1.0;
    // Blocking decomposition (diagnostic): the transition-weighted Eq. 9/10
    // factor.
    if (!c.terminal) {
      double pblock = 0.0;
      for (std::size_t k = edge_begin_[id]; k < edge_begin_[id + 1]; ++k)
        pblock += edges_[k].weight * edges_[k].blocking;
      sol.blocking = pblock;
    }
    if (std::isfinite(sol.utilization) &&
        (result.telemetry.max_utilization_class < 0 ||
         sol.utilization > result.telemetry.max_utilization)) {
      result.telemetry.max_utilization = sol.utilization;
      result.telemetry.max_utilization_class = static_cast<int>(id);
    }
    if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait) ||
        sol.utilization >= 1.0) {
      result.stable = false;
    }
  }
  if (!result.stable) {
    // Root-cause the saturation.  The originating class is the one whose own
    // bundle is at/over capacity while its composed service time is still
    // finite — upstream classes merely inherit its infinite wait (their
    // service times diverge, their utilizations follow).  Prefer the most
    // loaded such class; when none exists the waits diverged without a
    // finite root (a slow-link drain floor or composition blow-up).
    SolveTelemetry& tel = result.telemetry;
    double worst = 0.0;
    for (std::size_t id = 0; id < n; ++id) {
      const ChannelSolution& sol = result.channels[id];
      if (std::isfinite(sol.service_time) && std::isfinite(sol.utilization) &&
          sol.utilization >= 1.0 && sol.utilization >= worst) {
        worst = sol.utilization;
        tel.first_saturated_class = static_cast<int>(id);
        tel.saturation_cause = "occupancy";
      }
    }
    if (tel.first_saturated_class < 0) {
      for (std::size_t id = 0; id < n; ++id) {
        const ChannelSolution& sol = result.channels[id];
        if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait)) {
          tel.first_saturated_class = static_cast<int>(id);
          tel.saturation_cause =
              classes_[id].drain_floor > 0.0 ? "drain-capacity" : "divergent-wait";
          break;
        }
      }
    }
  }
  return result;
}

SolveResult solve_general_model(const ChannelGraph& graph, const SolveOptions& opts) {
  WORMNET_SPAN("solve_general_model", "solve");
  return SolvePlan(graph, opts).solve(opts.injection_scale);
}

LatencyEstimate estimate_latency(const SolveResult& solution,
                                 const std::vector<int>& injection_classes,
                                 double mean_distance) {
  return estimate_latency(solution, injection_classes, {}, mean_distance);
}

LatencyEstimate estimate_latency(const SolveResult& solution,
                                 const std::vector<int>& injection_classes,
                                 const std::vector<double>& weights,
                                 double mean_distance) {
  LatencyEstimate est;
  est.mean_distance = mean_distance;
  est.stable = solution.stable;
  est.inj_wait = injection_average(injection_classes, weights,
                                   [&](int id) { return solution.wait(id); });
  est.inj_service = injection_average(
      injection_classes, weights, [&](int id) { return solution.service_time(id); });
  est.latency = est.inj_wait + est.inj_service + mean_distance - 1.0;
  if (!std::isfinite(est.latency)) est.stable = false;
  // Structured status: a fixed point that failed to converge dominates
  // saturation; Disconnected is layered on by callers that know their
  // model's unroutable fraction (estimate_latency itself cannot).
  if (!solution.converged)
    est.status = SolveStatus::Infeasible;
  else if (!est.stable)
    est.status = SolveStatus::Saturated;
  // NaN never escapes the solver surface: divergence reads as +infinity.
  const double inf = std::numeric_limits<double>::infinity();
  if (std::isnan(est.inj_wait)) est.inj_wait = inf;
  if (std::isnan(est.inj_service)) est.inj_service = inf;
  if (std::isnan(est.latency)) est.latency = inf;
  return est;
}

int GeneralModel::class_id(const std::string& label) const {
  auto it = labels.find(label);
  WORMNET_EXPECTS(it != labels.end());
  return it->second;
}

void GeneralModel::set_injection_ca2(double ca2) {
  WORMNET_EXPECTS(ca2 >= 0.0);
  injection_ca2 = ca2;
  // An SCV-only tune describes a batchless process: a residual left over
  // from an earlier set_injection_process(batch) must not keep inflating
  // evaluate() after the caller retunes to (say) plain Poisson.
  injection_batch_residual = 0.0;
  for (int id = 0; id < graph.size(); ++id) {
    ChannelClass& c = graph.mutable_at(id);
    // The QNA affine form: a channel retaining fraction self_frac of its
    // sources' original processes interpolates between full
    // Poissonification (1) and the injection SCV itself.
    c.ca2 = 1.0 + (ca2 - 1.0) * c.self_frac;
  }
}

void GeneralModel::set_uniform_lanes(int lanes) {
  WORMNET_EXPECTS(lanes >= 1);
  for (int id = 0; id < graph.size(); ++id) graph.mutable_at(id).lanes = lanes;
}

void GeneralModel::scale_injection_rates(double factor) {
  WORMNET_EXPECTS(factor > 0.0 && std::isfinite(factor));
  for (int id = 0; id < graph.size(); ++id) {
    graph.mutable_at(id).rate_per_link *= factor;
  }
}

void GeneralModel::set_uniform_buffers(int flits) {
  if (flits < 1)
    throw std::invalid_argument("model: buffer depth must be >= 1 flit");
  for (int id = 0; id < graph.size(); ++id)
    graph.mutable_at(id).buffer_depth = flits;
}

void GeneralModel::set_uniform_bandwidth(double bw) {
  if (!(bw > 0.0) || !std::isfinite(bw))
    throw std::invalid_argument("model: bandwidth must be > 0 flits/cycle");
  for (int id = 0; id < graph.size(); ++id)
    graph.mutable_at(id).bandwidth = bw;
}

void GeneralModel::set_channel_bandwidths(const std::vector<double>& bw) {
  if (static_cast<int>(bw.size()) != graph.size())
    throw std::invalid_argument(
        "model: bandwidth vector size must equal the channel-class count");
  for (double b : bw) {
    if (!(b > 0.0) || !std::isfinite(b))
      throw std::invalid_argument("model: bandwidth must be > 0 flits/cycle");
  }
  for (int id = 0; id < graph.size(); ++id)
    graph.mutable_at(id).bandwidth = bw[static_cast<std::size_t>(id)];
}

void GeneralModel::set_injection_process(const arrivals::ArrivalSpec& spec,
                                         double lambda0) {
  WORMNET_EXPECTS(spec.check().empty());
  // Bernoulli is the one catalog entry whose SCV depends on λ₀ (1 − λ₀);
  // tuning it at the rate-invariant default would silently collapse to the
  // Poisson ca2(0) fallback — demand the operating rate instead.
  WORMNET_EXPECTS(spec.kind() != arrivals::Kind::Bernoulli || lambda0 > 0.0);
  // The model consumes the effective (asymptotic) variability parameter,
  // which folds MMPP autocorrelation in; for renewal processes it is the
  // plain interval SCV.
  set_injection_ca2(spec.effective_ca2(lambda0));
  injection_batch_residual = spec.batch_residual();
}

namespace {

/// Fold the load-independent intra-batch serialization wait into a finished
/// estimate (the exact M^[X]/G/1 decomposition; see
/// GeneralModel::injection_batch_residual).  Off when the bursty_arrivals
/// ablation is off — the term belongs to the same extension.
LatencyEstimate apply_batch_residual(LatencyEstimate est, double residual,
                                     bool bursty_arrivals) {
  if (residual <= 0.0 || !bursty_arrivals || !std::isfinite(est.inj_service))
    return est;
  const double extra = residual * est.inj_service;
  est.inj_wait += extra;
  est.latency += extra;
  return est;
}

/// Layer the model's unroutable fraction onto a finished estimate:
/// Disconnected only when nothing worse already applies (the carried demand
/// still solved), per the SolveStatus precedence.
LatencyEstimate apply_unroutable(LatencyEstimate est, double unroutable) {
  est.unroutable_fraction = unroutable;
  if (unroutable > 0.0 && est.status == SolveStatus::Ok)
    est.status = SolveStatus::Disconnected;
  return est;
}

}  // namespace

std::uint64_t GeneralModel::content_digest() const {
  // Everything evaluate() reads.  Labels and channel_class_of are reporting
  // metadata only, and opts.injection_scale is overridden by every
  // evaluation's λ₀ — all three are deliberately excluded.
  const queueing::AblationOptions& abl = opts.ablation;
  // Every switch changes evaluate(): a new one must be mixed in here too.
  static_assert(sizeof(queueing::AblationOptions) == 6 * sizeof(bool));
  std::uint64_t h = util::hash_bytes(model_name);
  h = util::hash_mix(h, (static_cast<std::uint64_t>(abl.finite_buffers) << 5) |
                           (static_cast<std::uint64_t>(abl.multi_server) << 4) |
                           (static_cast<std::uint64_t>(abl.blocking_correction) << 3) |
                           (static_cast<std::uint64_t>(abl.erratum_2lambda) << 2) |
                           (static_cast<std::uint64_t>(abl.virtual_channels) << 1) |
                           static_cast<std::uint64_t>(abl.bursty_arrivals));
  h = util::hash_mix_double(h, opts.worm_flits);
  h = util::hash_mix_double(h, injection_ca2);
  h = util::hash_mix_double(h, injection_batch_residual);
  h = util::hash_mix(h, static_cast<std::uint64_t>(graph.size()));
  for (int id = 0; id < graph.size(); ++id) {
    const ChannelClass& c = graph.at(id);
    h = util::hash_mix(h, (static_cast<std::uint64_t>(c.servers) << 32) |
                              (static_cast<std::uint64_t>(c.lanes) << 1) |
                              static_cast<std::uint64_t>(c.terminal));
    h = util::hash_mix_double(h, c.rate_per_link);
    h = util::hash_mix_double(h, c.ca2);
    h = util::hash_mix_double(h, c.self_frac);
    h = util::hash_mix_double(h, c.bandwidth);
    h = util::hash_mix_double(h, c.link_latency);
    h = util::hash_mix(h, static_cast<std::uint64_t>(c.buffer_depth));
    for (const Transition& t : c.next) {
      h = util::hash_mix(h, static_cast<std::uint64_t>(t.target));
      h = util::hash_mix_double(h, t.weight);
      h = util::hash_mix_double(h, t.route_prob);
    }
  }
  for (int id : injection_classes) {
    h = util::hash_mix(h, static_cast<std::uint64_t>(id));
  }
  for (double w : injection_class_weights) h = util::hash_mix_double(h, w);
  h = util::hash_mix_double(h, mean_distance);
  h = util::hash_mix_double(h, unroutable_fraction);
  h = util::hash_mix(h, static_cast<std::uint64_t>(opts.max_iterations));
  h = util::hash_mix_double(h, opts.tolerance);
  h = util::hash_mix_double(h, opts.damping);
  return h;
}

SolveResult GeneralModel::solve(double lambda0) const {
  return model_solve(*this, lambda0, opts);
}

LatencyEstimate GeneralModel::evaluate(double lambda0) const {
  return model_latency(*this, lambda0, opts);
}

double GeneralModel::saturation_rate() const {
  return model_saturation_rate(*this, opts);
}

SolveResult model_solve(const GeneralModel& net, double lambda0, SolveOptions base) {
  base.injection_scale = lambda0;
  return solve_general_model(net.graph, base);
}

LatencyEstimate model_latency(const GeneralModel& net, double lambda0,
                              SolveOptions base) {
  const SolveResult res = model_solve(net, lambda0, base);
  return apply_unroutable(
      apply_batch_residual(
          estimate_latency(res, net.injection_classes,
                           net.injection_class_weights, net.mean_distance),
          net.injection_batch_residual, base.ablation.bursty_arrivals),
      net.unroutable_fraction);
}

double model_saturation_rate(const GeneralModel& net, SolveOptions base) {
  WORMNET_SPAN("saturation_search", "solve");
  // One plan for the whole search; each probe's x̄_inj is model_latency's
  // inj_service at that λ₀, bit for bit (same sweep, same average, NaN read
  // as +inf), without assembling a SolveResult.
  const SolvePlan plan(net.graph, base);
  std::vector<double> x;
  std::vector<double> waits;
  return find_saturation_rate(
      [&](double lambda0) {
        plan.sweep(lambda0, x, waits);
        const double service = injection_average(
            net.injection_classes, net.injection_class_weights,
            [&](int id) { return x.at(static_cast<std::size_t>(id)); });
        return std::isnan(service) ? std::numeric_limits<double>::infinity()
                                   : service;
      },
      1.0 / base.worm_flits);
}

}  // namespace wormnet::core
