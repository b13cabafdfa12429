// tests/oracle_builders.hpp
//
// Hand-derived collapsed channel graphs, kept as test oracles.  The library
// builds every model through core::build_traffic_model (whose symmetric
// quotient derives these classes automatically); the builders below encode
// the same reductions BY HAND from the paper's formulas, so the closed-form,
// ablation-mask and scale parity tests have an independent reference.
//
// build_fattree_collapsed: the butterfly fat-tree's COLLAPSED channel graph,
// one class per (level, direction) — exactly the symmetry reduction the paper
// performs in §3.2 ("links that are at the same level and run in the same
// direction are symmetrical").  Solved by the general model it reproduces
// the closed-form FatTreeModel to machine precision.  Class labels: "up0"
// (the injection channel ⟨0,1⟩) … "up{n-1}" (⟨n-1,n⟩), "down0" (the ejection
// channel ⟨1,0⟩) … "down{n-1}" (⟨n,n-1⟩).
//
// build_hypercube_collapsed: the binary hypercube under e-cube (ascending
// dimension-order) routing — the Draper & Ghosh setting the paper cites.
// Symmetry classes: one injection class, one class per dimension d (every
// directed dimension-d link carries the same load under uniform traffic),
// and one ejection class.  With N = 2^n and uniform destinations:
//   * rate per dimension-d link:     λ_d = λ₀ · N / (2 (N-1))   (all d equal)
//   * injection → dim d:             P(first differing bit is d)
//                                      = 2^(n-d-1) / (N-1)
//   * dim d → dim d' (d' > d):       2^-(d'-d)
//   * dim d → eject:                 2^-(n-1-d)
// (diff bits above d are i.i.d. fair coins once the message crosses dim d).
// Class labels: "inj", "dim0" … "dim{n-1}", "eject".
#pragma once

#include <string>
#include <vector>

#include "core/general_model.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace wormnet::oracle {

/// Build the collapsed fat-tree model for n = `levels` (N = 4^n).
/// Rates are per physical link at λ₀ = 1 (Eq. 14/15).  `parents` selects
/// the parent-link multiplicity: 2 is the paper's butterfly fat-tree;
/// other values model the GeneralizedFatTree (rates scale as (4/m)^l and
/// up bundles become m-server channels).
///
/// `exact_conditionals` replaces the paper's Eq. 22 branching probability
/// P↑_l with the exact conditional P↑_l / P↑_{l-1} — a message already on
/// channel ⟨l-1, l⟩ is known not to terminate below level l, a fact Eq. 22
/// ignores.  With it, the collapsed graph agrees with the exact-flow
/// per-channel graph (core::build_traffic_model) to machine precision;
/// without it, the two differ by the (sub-0.1%) approximation error the
/// paper accepts.  `lanes` sets a uniform virtual-channel multiplicity on
/// every class (the closed-form FatTreeModel's `lanes` option is its
/// counterpart); 1 is the paper's single-lane network.
inline core::GeneralModel build_fattree_collapsed(int levels, int parents = 2,
                                                  bool exact_conditionals = false,
                                                  int lanes = 1) {
  using core::ChannelClass;
  using util::ipow;
  WORMNET_EXPECTS(levels >= 1 && levels <= 10);
  WORMNET_EXPECTS(parents >= 1 && parents <= 4);
  WORMNET_EXPECTS(lanes >= 1);
  const int n = levels;
  const double num_procs = static_cast<double>(ipow(4, n));

  auto up_prob = [&](int l) {
    return (num_procs - static_cast<double>(ipow(4, l))) / (num_procs - 1.0);
  };
  auto rate_up = [&](int l) {  // Eq. 14 at λ₀ = 1, generalized to m parents
    double fan = 1.0;
    for (int i = 0; i < l; ++i) fan *= 4.0 / parents;
    return up_prob(l) * fan;
  };

  core::GeneralModel net;
  std::vector<int> up(static_cast<std::size_t>(n));
  std::vector<int> down(static_cast<std::size_t>(n));

  for (int l = 0; l < n; ++l) {
    ChannelClass c;
    c.label = "up" + std::to_string(l);
    c.servers = (l == 0) ? 1 : parents;  // injection channel has no redundant twin
    c.lanes = lanes;
    c.rate_per_link = rate_up(l);
    up[static_cast<std::size_t>(l)] = net.graph.add_channel(c);
    net.labels[c.label] = up[static_cast<std::size_t>(l)];
  }
  for (int l = 0; l < n; ++l) {
    ChannelClass c;
    c.label = "down" + std::to_string(l);
    c.servers = 1;
    c.lanes = lanes;
    c.rate_per_link = rate_up(l);  // Eq. 15: down rate mirrors up rate
    c.terminal = (l == 0);         // ejection channel ⟨1,0⟩: x̄ = s_f
    down[static_cast<std::size_t>(l)] = net.graph.add_channel(c);
    net.labels[c.label] = down[static_cast<std::size_t>(l)];
  }

  // Up-channel continuations.  A message on ⟨l, l+1⟩ reaches a switch at
  // level l+1 and either climbs into the two-server bundle ⟨l+1, l+2⟩
  // (weight and R both P↑_{l+1}) or descends into one of the THREE sibling
  // down links ⟨l+1, l⟩ (class weight P↓_{l+1}, but a specific link only
  // with R = P↓_{l+1}/3 — the weight/route_prob split that makes the
  // general solver reproduce Eq. 20/22).
  //
  // The paper uses the UNCONDITIONAL P↑_{l+1} here; the exact continuation
  // probability, given the message already climbed past level l, is
  // P↑_{l+1} / P↑_l (destinations below level l are ruled out).
  for (int l = 0; l < n - 1; ++l) {
    double pu = up_prob(l + 1);
    if (exact_conditionals) pu = up_prob(l + 1) / up_prob(l);
    const double pd = 1.0 - pu;
    net.graph.add_transition(up[static_cast<std::size_t>(l)],
                             up[static_cast<std::size_t>(l + 1)], pu, pu);
    net.graph.add_transition(up[static_cast<std::size_t>(l)],
                             down[static_cast<std::size_t>(l)], pd, pd / 3.0);
  }
  // Top level: always descend, into one of 3 siblings (Eq. 20).
  net.graph.add_transition(up[static_cast<std::size_t>(n - 1)],
                           down[static_cast<std::size_t>(n - 1)], 1.0, 1.0 / 3.0);

  // Down-channel continuations: ⟨l+1, l⟩ feeds exactly one of the 4 child
  // links ⟨l, l-1⟩ (weight 1, R = 1/4 — Eq. 18).
  for (int l = 1; l < n; ++l) {
    net.graph.add_transition(down[static_cast<std::size_t>(l)],
                             down[static_cast<std::size_t>(l - 1)], 1.0, 0.25);
  }

  net.injection_classes = {up[0]};
  net.model_name = "collapsed-fattree(n=" + std::to_string(levels) +
                   ",m=" + std::to_string(parents) + ")";
  const double denom = num_procs - 1.0;
  double dbar = 0.0;
  for (int l = 1; l <= n; ++l)
    dbar += 2.0 * l * 3.0 * static_cast<double>(ipow(4, l - 1)) / denom;
  net.mean_distance = dbar;

  WORMNET_ENSURES(net.graph.validate().empty());
  WORMNET_ENSURES(net.graph.acyclic());
  return net;
}

/// Build the collapsed hypercube model for `dims` dimensions (N = 2^dims).
/// `lanes` sets a uniform virtual-channel multiplicity on every class; 1 is
/// the single-lane network of Draper & Ghosh.
inline core::GeneralModel build_hypercube_collapsed(int dims, int lanes = 1) {
  using core::ChannelClass;
  WORMNET_EXPECTS(dims >= 1 && dims <= 16);
  WORMNET_EXPECTS(lanes >= 1);
  const int n = dims;
  const double big_n = static_cast<double>(1L << n);

  core::GeneralModel net;

  ChannelClass inj;
  inj.label = "inj";
  inj.servers = 1;
  inj.lanes = lanes;
  inj.rate_per_link = 1.0;  // λ₀ per processor
  const int inj_id = net.graph.add_channel(inj);
  net.labels[inj.label] = inj_id;

  std::vector<int> dim_id(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    ChannelClass c;
    c.label = "dim" + std::to_string(d);
    c.servers = 1;  // e-cube is deterministic: no redundant links
    c.lanes = lanes;
    c.rate_per_link = big_n / (2.0 * (big_n - 1.0));
    dim_id[static_cast<std::size_t>(d)] = net.graph.add_channel(c);
    net.labels[c.label] = dim_id[static_cast<std::size_t>(d)];
  }

  ChannelClass ej;
  ej.label = "eject";
  ej.servers = 1;
  ej.lanes = lanes;
  ej.rate_per_link = 1.0;  // each PE absorbs λ₀ in steady state
  ej.terminal = true;
  const int ej_id = net.graph.add_channel(ej);
  net.labels[ej.label] = ej_id;

  // Injection: route to the lowest differing dimension.  dest != src is
  // guaranteed, so the injection never feeds the ejection directly.
  for (int d = 0; d < n; ++d) {
    const double p = static_cast<double>(1L << (n - d - 1)) / (big_n - 1.0);
    net.graph.add_transition(inj_id, dim_id[static_cast<std::size_t>(d)], p);
  }

  // Dimension d: bits above d are unbiased coins — continue at the next set
  // bit or eject when none remain.
  for (int d = 0; d < n; ++d) {
    for (int d2 = d + 1; d2 < n; ++d2) {
      const double p = 1.0 / static_cast<double>(1L << (d2 - d));
      net.graph.add_transition(dim_id[static_cast<std::size_t>(d)],
                               dim_id[static_cast<std::size_t>(d2)], p);
    }
    const double p_eject = 1.0 / static_cast<double>(1L << (n - 1 - d));
    net.graph.add_transition(dim_id[static_cast<std::size_t>(d)], ej_id, p_eject);
  }

  net.injection_classes = {inj_id};
  net.model_name = "collapsed-hypercube(n=" + std::to_string(dims) + ")";
  // Mean Hamming distance over distinct pairs plus injection and ejection.
  net.mean_distance = n * (big_n / 2.0) / (big_n - 1.0) + 2.0;

  WORMNET_ENSURES(net.graph.validate().empty());
  WORMNET_ENSURES(net.graph.acyclic());
  return net;
}

}  // namespace wormnet::oracle
