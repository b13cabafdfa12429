// wormnet/topo/hypercube.hpp
//
// Binary n-cube (direct network) with deterministic e-cube routing, the
// setting of Draper & Ghosh's wormhole model that the paper cites as prior
// art.  It exercises the general channel-graph model of wormnet::core on a
// network with NO routing redundancy (all bundles are single-server) and a
// per-dimension channel-class structure.
//
// Node layout: processors [0, N), routers [N, 2N) with router(i) = N + i.
// Router ports: port d in [0, n) crosses dimension d (to address i xor 2^d);
// port n is the processor link.  E-cube resolves dimensions in ascending
// order, which makes the channel dependency graph acyclic (dimension-d
// channels only feed dimension->d' > d channels or the ejection link).
#pragma once

#include <string>

#include "topo/topology.hpp"

namespace wormnet::topo {

/// Binary hypercube with e-cube (ascending dimension-order) routing.
class Hypercube final : public Topology {
 public:
  /// Build an n-dimensional cube, N = 2^n processors; n in [1, 16].
  explicit Hypercube(int dims);

  std::string name() const override;
  int num_nodes() const override { return 2 * num_procs_; }
  int num_processors() const override { return num_procs_; }
  NodeKind kind(int node) const override {
    return node < num_procs_ ? NodeKind::Processor : NodeKind::Switch;
  }
  int num_ports(int node) const override { return node < num_procs_ ? 1 : dims_ + 1; }
  int neighbor(int node, int port) const override;
  int neighbor_port(int node, int port) const override;
  RouteOptions route(int node, int dest) const override;
  int distance(int src_proc, int dst_proc) const override;
  double mean_distance() const override;

  // Symmetry (collapsed analytical builder).  The XOR translations
  // x ↦ x ⊕ t are the routing-preserving automorphisms of e-cube (dimension
  // PERMUTATIONS change the ascending-order route, so they are excluded):
  // one processor orbit, and channel orbits = injection, ejection, and one
  // class per dimension crossed (translation by e_d folds the two
  // directions of a dimension into one orbit) — dims + 2 classes.  The
  // translation stabilizer of any pinned processor is trivial, so pins
  // declare no symmetry and the collapsed builder falls back.
  bool has_symmetry(const std::vector<int>& pinned_procs) const override {
    return pinned_procs.empty();
  }
  std::uint64_t proc_symmetry_key(int proc,
                                  const std::vector<int>& pinned_procs) const override {
    static_cast<void>(proc);
    static_cast<void>(pinned_procs);
    return 0;
  }
  std::uint64_t channel_symmetry_key(
      int node, int port, const std::vector<int>& pinned_procs) const override {
    static_cast<void>(pinned_procs);
    if (node < num_procs_) return 1ull << 56;                       // injection
    if (port == dims_) return 2ull << 56;                           // ejection
    return (3ull << 56) | static_cast<std::uint64_t>(port);         // dimension
  }
  // XOR translations keep every port number, so the survivor BFS's
  // lowest-port tie-break commutes with them.  (Mesh reflections swap the
  // minus/plus ports of an axis, so Mesh must not declare this.)
  bool symmetry_commutes_with_faults() const override { return true; }

  /// Dimensionality n.
  int dims() const { return dims_; }
  /// Router node id hosting processor `proc`.
  int router_of(int proc) const { return num_procs_ + proc; }
  /// Cube address of a router node.
  int address_of(int router) const { return router - num_procs_; }

 private:
  int dims_;
  int num_procs_;
};

}  // namespace wormnet::topo
