// wormnet/topo/butterfly_fattree.hpp
//
// The butterfly fat-tree of Greenberg & Guan §3.1.
//
// Structure for N = 4^n processors:
//  * level 0: the N processors;
//  * level l (1 <= l <= n): N / 2^(l+1) switches, each with four child ports
//    (down) and two parent ports (up); level-n switches leave their parent
//    ports unconnected.
//  * processor P(a) attaches to child (a mod 4) of switch S(1, floor(a/4));
//  * parent p of S(l, a) is S(l+1, floor(a/2^(l+1))*2^l + (a + p*2^(l-1)) mod 2^l)
//    at child index floor((a mod 2^(l+1)) / 2^(l-1))  — the paper's wiring rule.
//
// Derived facts used throughout wormnet (proved by the exhaustive tests):
//  * S(l, a) reaches exactly the processor block
//    [ (a >> (l-1)) * 4^l, (a >> (l-1)) * 4^l + 4^l )  going down, and the
//    down-route child port toward processor d is base-4 digit (l-1) of d;
//  * a minimal route climbs to the lowest level l whose switch covers the
//    destination (the "LCA level") and descends; it traverses 2*l channels
//    counting injection and ejection;
//  * up-routes may use either parent (the redundancy the paper models with a
//    two-server queue); down-routes are unique.
#pragma once

#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace wormnet::topo {

/// Butterfly fat-tree topology (indirect; processors at the leaves).
// Not `final`: the link-attribute hooks (bandwidth / link_latency /
// buffer_depth) are designed to be overridable per deployment — tests and
// irregular-fabric experiments subclass to inject non-uniform attributes.
class ButterflyFatTree : public Topology {
 public:
  /// Port indices on a switch.
  static constexpr int kChildPort0 = 0;  ///< child ports are 0..3
  static constexpr int kParentPort0 = 4;
  static constexpr int kParentPort1 = 5;

  /// Build a fat-tree with `levels` switch levels (N = 4^levels processors).
  /// levels must be in [1, 10] (10 => 1,048,576 processors — the scale the
  /// symmetry-collapsed analytical builder is sized for; the paper's own
  /// experiments stop at 1024).
  explicit ButterflyFatTree(int levels);

  // -- Topology interface -------------------------------------------------
  std::string name() const override;
  int num_nodes() const override { return static_cast<int>(nbr_.size()); }
  int num_processors() const override { return num_procs_; }
  NodeKind kind(int node) const override {
    return node < num_procs_ ? NodeKind::Processor : NodeKind::Switch;
  }
  int num_ports(int node) const override { return node < num_procs_ ? 1 : 6; }
  int neighbor(int node, int port) const override;
  int neighbor_port(int node, int port) const override;
  RouteOptions route(int node, int dest) const override;
  int distance(int src_proc, int dst_proc) const override;
  double mean_distance() const override;
  std::vector<PortBundle> output_bundles(int node) const override;

  // Symmetry (collapsed analytical builder).  With no pins the orbits are
  // the paper's per-level classes — (direction, level), 2n channel classes
  // and a single processor orbit; pinning one processor h (a hotspot)
  // refines both by the relation to h: processors by lca_level(·, h),
  // channels additionally by whether the switch / the targeted child block
  // covers h.  All keyed classes are orbits of route-preserving
  // automorphisms fixing the pins (leaf-block permutations below the LCA
  // with h, and the redundant-parent permutations that fix every leaf).
  bool has_symmetry(const std::vector<int>& pinned_procs) const override {
    return pinned_procs.size() <= 1;
  }
  std::uint64_t proc_symmetry_key(int proc,
                                  const std::vector<int>& pinned_procs) const override;
  std::uint64_t channel_symmetry_key(
      int node, int port, const std::vector<int>& pinned_procs) const override;
  // Single-link failures in one declared orbit give one model answer (to a
  // few ulps), with or without a pinned hotspot.
  bool symmetry_commutes_with_faults() const override { return true; }

  // -- Fat-tree specific structure ----------------------------------------
  /// Number of switch levels n (N = 4^n).
  int levels() const { return levels_; }
  /// Switch count at level l (1-based): N / 2^(l+1).
  int switches_at(int level) const;
  /// Node id of switch S(level, addr).
  int switch_id(int level, int addr) const;
  /// Level of a node: 0 for processors, l for level-l switches.
  int node_level(int node) const;
  /// Address of a switch within its level.
  int switch_addr(int node) const;

  /// True when switch S(level, addr) reaches processor `proc` going down.
  bool covers(int level, int addr, int proc) const;
  /// The child port out of S(level, ·) toward covered processor `proc`
  /// (base-4 digit level-1 of proc).
  static int down_port(int level, int proc);
  /// Lowest level whose switches cover both processors (0 iff s == d).
  int lca_level(int s, int d) const;

  /// Number of physical links running up from level l to l+1 (equals the
  /// number running down): N / 2^l for 1 <= l < n, and N for l = 0
  /// (the processor links).  Matches the paper's §3.2 counting.
  long links_between(int level_lo) const;

  // -- Tapered (oversubscribed) variants ----------------------------------
  //
  // A tier groups the links between adjacent levels: tier t holds the links
  // between level t and t+1 (tier 0 = the processor links), matching
  // links_between(t).  Tapering sets one bandwidth per tier — e.g. a 2:1
  // oversubscribed two-level tree halves tier 1 — while both directions of
  // a link always share the tier's speed, so the (direction, level)
  // symmetry keys still separate equal-attribute classes and the collapsed
  // builder keeps working per tier.

  /// Tier of the directed channel leaving `node` through `port` (see above).
  int link_tier(int node, int port) const {
    WORMNET_EXPECTS(node >= 0 && node < num_nodes());
    WORMNET_EXPECTS(port >= 0 && port < num_ports(node));
    if (node < num_procs_) return 0;
    const int l = node_level(node);
    return port >= kParentPort0 ? l : l - 1;
  }

  /// Set the bandwidth (flits/cycle) of every link in tier `tier`
  /// (0 <= tier < levels()).  Throws std::invalid_argument on a
  /// non-positive bandwidth or an out-of-range tier.  Call before
  /// constructing a SimNetwork or building a model — those snapshot.
  void set_tier_bandwidth(int tier, double bw) {
    if (tier < 0 || tier >= levels_)
      throw std::invalid_argument("fat-tree: tier out of range");
    if (!(bw > 0.0))
      throw std::invalid_argument("fat-tree: tier bandwidth must be > 0");
    if (tier_bandwidth_.empty())
      tier_bandwidth_.assign(static_cast<std::size_t>(levels_),
                             uniform_bandwidth());
    tier_bandwidth_[static_cast<std::size_t>(tier)] = bw;
  }

  /// Per-tier bandwidth when tapered; the uniform default otherwise.
  double bandwidth(int node, int port) const override {
    if (tier_bandwidth_.empty()) return Topology::bandwidth(node, port);
    return tier_bandwidth_[static_cast<std::size_t>(link_tier(node, port))];
  }

 private:
  struct End {
    int node = kNoNode;
    int port = -1;
  };

  void connect(int node_a, int port_a, int node_b, int port_b);

  int levels_;
  int num_procs_;
  std::vector<double> tier_bandwidth_;  // empty = uniform (untapered)
  std::vector<int> level_offset_;      // switch id base per level (1-based index)
  std::vector<std::array<End, 6>> nbr_;  // per node, per port
  std::vector<int> node_level_;
  std::vector<int> node_addr_;
};

}  // namespace wormnet::topo
