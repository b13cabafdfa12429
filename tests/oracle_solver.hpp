// tests/oracle_solver.hpp
//
// The general model's per-class solver as it stood before the library
// compiled graphs into core::SolvePlan, kept as a test oracle.  It walks the
// ChannelGraph directly: a nested-vector Kahn sort for the reverse-
// topological order, then Eq. 11 composed class by class through graph.at,
// recomputing every Eq. 9/10 blocking factor on every visit.  SolvePlan
// hoists all of that out of the solve and must reproduce it bit for bit —
// every SolveResult field, every x̄_inj probe of the Eq. 26 search and the
// saturation rate itself (tests/test_solve_plan.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/general_model.hpp"
#include "core/saturation.hpp"
#include "queueing/channel_solver.hpp"
#include "util/assert.hpp"

namespace wormnet::oracle {

/// Kahn's algorithm with one dependents vector per class; terminals first.
/// Empty when the graph has a cycle.
inline std::vector<int> reverse_topological_order(const core::ChannelGraph& graph) {
  const int n = graph.size();
  std::vector<int> remaining_deps(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> dependents(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (const core::Transition& t : graph.at(i).next) {
      ++remaining_deps[static_cast<std::size_t>(i)];
      dependents[static_cast<std::size_t>(t.target)].push_back(i);
    }
  }
  std::vector<int> order;
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (remaining_deps[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const int c = ready.back();
    ready.pop_back();
    order.push_back(c);
    for (int dep : dependents[static_cast<std::size_t>(c)]) {
      if (--remaining_deps[static_cast<std::size_t>(dep)] == 0) ready.push_back(dep);
    }
  }
  if (static_cast<int>(order.size()) != n) return {};
  return order;
}

namespace detail {

using queueing::ChannelSolver;

inline int model_lanes(const ChannelSolver& solver, const core::ChannelClass& cls) {
  return solver.drain_floor(cls.bandwidth, cls.buffer_depth) > 0.0 ? 1
                                                                   : cls.lanes;
}

inline double bundle_wait(const ChannelSolver& solver, const core::ChannelClass& cls,
                          double xbar, double scale) {
  return solver.bundle_wait(cls.servers, model_lanes(solver, cls),
                            cls.rate_per_link * scale, xbar, cls.ca2);
}

inline double blocking_factor(const ChannelSolver& solver,
                              const core::ChannelClass& from,
                              const core::ChannelClass& to,
                              const core::Transition& t) {
  return solver.blocking_factor(to.servers, to.lanes, from.rate_per_link,
                                to.rate_per_link, t.route_prob, to.bandwidth,
                                to.buffer_depth);
}

inline double compose_service_time(const ChannelSolver& solver,
                                   const core::ChannelGraph& graph, int i,
                                   const std::vector<double>& x,
                                   const std::vector<double>& waits,
                                   double scale) {
  const core::ChannelClass& cls = graph.at(i);
  double excess = solver.hop_excess(cls.link_latency);
  double xi;
  if (cls.terminal) {
    xi = solver.terminal_service();
  } else {
    xi = 0.0;
    for (const core::Transition& t : cls.next) {
      const double p = blocking_factor(solver, cls, graph.at(t.target), t);
      const double wait_term =
          ChannelSolver::wait_term(p, waits[static_cast<std::size_t>(t.target)]);
      xi += t.weight * (x[static_cast<std::size_t>(t.target)] + wait_term);
    }
  }
  const double floor = solver.drain_floor(cls.bandwidth, cls.buffer_depth);
  if (floor > 0.0) {
    const double shared =
        floor * solver.lane_share_factor(cls.lanes, cls.rate_per_link * scale,
                                         cls.bandwidth, cls.buffer_depth);
    if (shared > xi) xi = shared;
  } else {
    excess += solver.lane_excess(cls.lanes, cls.rate_per_link * scale);
  }
  return xi + excess;
}

}  // namespace detail

/// The reference solve: what core::solve_general_model must return.
inline core::SolveResult solve_channel_graph(const core::ChannelGraph& graph,
                                             const core::SolveOptions& opts) {
  using detail::blocking_factor;
  using detail::bundle_wait;
  using detail::model_lanes;
  WORMNET_EXPECTS(opts.worm_flits > 0.0);
  WORMNET_EXPECTS(opts.injection_scale >= 0.0);
  WORMNET_EXPECTS(graph.validate().empty());

  const queueing::ChannelSolver solver(opts.worm_flits, opts.ablation);
  const double scale = opts.injection_scale;
  const int n = graph.size();
  core::SolveResult result;
  result.channels.assign(static_cast<std::size_t>(n), {});
  std::vector<double> x(static_cast<std::size_t>(n), opts.worm_flits);
  std::vector<double> waits(static_cast<std::size_t>(n), 0.0);

  const std::vector<int> order = reverse_topological_order(graph);
  if (!order.empty()) {
    for (int id : order) {
      x[static_cast<std::size_t>(id)] =
          detail::compose_service_time(solver, graph, id, x, waits, scale);
      waits[static_cast<std::size_t>(id)] =
          bundle_wait(solver, graph.at(id), x[static_cast<std::size_t>(id)], scale);
    }
    result.iterations = 1;
    result.converged = true;
  } else {
    result.converged = false;
    double last_delta = 0.0;
    for (int it = 0; it < opts.max_iterations; ++it) {
      double max_delta = 0.0;
      for (int id = 0; id < n; ++id) {
        waits[static_cast<std::size_t>(id)] =
            bundle_wait(solver, graph.at(id), x[static_cast<std::size_t>(id)], scale);
      }
      for (int id = 0; id < n; ++id) {
        const double next =
            detail::compose_service_time(solver, graph, id, x, waits, scale);
        const double cur = x[static_cast<std::size_t>(id)];
        double blended = cur + opts.damping * (next - cur);
        if (std::isinf(next)) blended = next;
        max_delta = std::max(max_delta, std::abs(blended - cur));
        x[static_cast<std::size_t>(id)] = blended;
      }
      result.iterations = it + 1;
      last_delta = max_delta;
      if (max_delta < opts.tolerance || std::isinf(max_delta) || std::isnan(max_delta)) {
        result.converged = max_delta < opts.tolerance;
        break;
      }
    }
    result.telemetry.max_residual = last_delta;
    for (int id = 0; id < n; ++id) {
      waits[static_cast<std::size_t>(id)] =
          bundle_wait(solver, graph.at(id), x[static_cast<std::size_t>(id)], scale);
    }
  }

  for (int id = 0; id < n; ++id) {
    const core::ChannelClass& cls = graph.at(id);
    core::ChannelSolution& sol = result.channels[static_cast<std::size_t>(id)];
    sol.service_time = x[static_cast<std::size_t>(id)];
    sol.wait = waits[static_cast<std::size_t>(id)];
    sol.utilization = solver.bundle_utilization(
        cls.servers, model_lanes(solver, cls), cls.rate_per_link * scale,
        sol.service_time);
    sol.cb2 = solver.cb2(sol.service_time);
    sol.ca2 = opts.ablation.bursty_arrivals ? cls.ca2 : 1.0;
    if (!cls.terminal) {
      double pblock = 0.0;
      for (const core::Transition& t : cls.next)
        pblock += t.weight * blocking_factor(solver, cls, graph.at(t.target), t);
      sol.blocking = pblock;
    }
    if (std::isfinite(sol.utilization) &&
        (result.telemetry.max_utilization_class < 0 ||
         sol.utilization > result.telemetry.max_utilization)) {
      result.telemetry.max_utilization = sol.utilization;
      result.telemetry.max_utilization_class = id;
    }
    if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait) ||
        sol.utilization >= 1.0) {
      result.stable = false;
    }
  }
  if (!result.stable) {
    core::SolveTelemetry& tel = result.telemetry;
    double worst = 0.0;
    for (int id = 0; id < n; ++id) {
      const core::ChannelSolution& sol = result.channels[static_cast<std::size_t>(id)];
      if (std::isfinite(sol.service_time) && std::isfinite(sol.utilization) &&
          sol.utilization >= 1.0 && sol.utilization >= worst) {
        worst = sol.utilization;
        tel.first_saturated_class = id;
        tel.saturation_cause = "occupancy";
      }
    }
    if (tel.first_saturated_class < 0) {
      for (int id = 0; id < n; ++id) {
        const core::ChannelSolution& sol =
            result.channels[static_cast<std::size_t>(id)];
        if (!std::isfinite(sol.service_time) || !std::isfinite(sol.wait)) {
          tel.first_saturated_class = id;
          const core::ChannelClass& cls = graph.at(id);
          tel.saturation_cause =
              solver.drain_floor(cls.bandwidth, cls.buffer_depth) > 0.0
                  ? "drain-capacity"
                  : "divergent-wait";
          break;
        }
      }
    }
  }
  return result;
}

/// x̄_inj at λ₀ through the reference solve — one Eq. 26 probe, uniform or
/// orbit-weighted like core::estimate_latency.
inline double injection_service(const core::GeneralModel& net, double lambda0,
                                core::SolveOptions base) {
  base.injection_scale = lambda0;
  return core::estimate_latency(solve_channel_graph(net.graph, base),
                                net.injection_classes,
                                net.injection_class_weights, net.mean_distance)
      .inj_service;
}

/// The reference Eq. 26 search: a fresh reference solve per probe.
inline double saturation_rate(const core::GeneralModel& net,
                              const core::SolveOptions& base) {
  return core::find_saturation_rate(
      [&](double lambda0) { return injection_service(net, lambda0, base); },
      1.0 / base.worm_flits);
}

}  // namespace wormnet::oracle
