// wormnet/topo/fault.hpp
//
// Partial failure as a first-class topology input.  A FaultSet names failed
// elements — whole undirected links by one (node, port) endpoint, or whole
// switches (every link they terminate) — validated against one topology at
// construction so a bad spec throws std::invalid_argument at configuration
// time, never NaN mid-solve.  A FaultedTopology is a decorator that presents
// the SAME channel structure as its base (dead links still enumerate, so
// topo::ChannelTable and every dense per-channel array stay index-aligned
// between the healthy and faulted views, so per-channel results of the
// two line up) but routes around the failures:
//
//  * destinations whose base minimal routes never touch a failed element
//    keep the base routing function verbatim (bit-identical fast path);
//  * affected destinations route by survivor BFS distance — at each node the
//    candidates are the in-service ports making strictly-minimal progress in
//    the survivor graph, restricted to one output bundle so the simulator's
//    single-bundle arbitration invariant holds (fat-tree worms detour over
//    the surviving parent link; mesh/hypercube worms take live minimal
//    detours);
//  * pairs with no surviving path are reported — reachable() answers false,
//    first_unreachable_pair() names a witness — instead of asserting inside
//    the flow-propagation DP.
//
// Faults break a topology's declared symmetry in general, so a non-empty
// FaultedTopology declares none and the collapsed builder falls back to the
// dense path; an EMPTY fault set forwards the base symmetry hooks unchanged,
// keeping collapsed residents valid as the baseline of availability sweeps.
// The symmetry still acts on the fault sets themselves: where the base
// declares Topology::symmetry_commutes_with_faults, two single-link faults
// in one link orbit give views with one model answer, and the query engine
// builds only one of them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topo/topology.hpp"

namespace wormnet::topo {

/// A validated set of failed links / switches against one topology.
/// Immutable after the fail_* calls that build it; safe to share across
/// threads by const reference or shared_ptr.
class FaultSet {
 public:
  /// Binds the set to `topo` for validation; the topology must outlive the
  /// fault set.
  explicit FaultSet(const Topology& topo);

  /// Fail the undirected link attached at (node, port) — both directed
  /// channels over it go out of service.  Throws std::invalid_argument on an
  /// out-of-range node or port, an unconnected port, a link terminating at a
  /// processor (injection/ejection channels cannot fail: a PE with no link
  /// is not a degraded network, it is a smaller one), or a link already
  /// failed (directly or via a failed switch).
  void fail_link(int node, int port);

  /// Fail a whole switch: every link it terminates goes out of service.
  /// Throws std::invalid_argument on an out-of-range or processor node, on a
  /// switch with a processor neighbor (that would sever injection/ejection
  /// channels — fail its up-links instead to model an isolated block), or
  /// when any of its links is already failed.
  void fail_switch(int node);

  /// No failures recorded.
  bool empty() const { return links_.empty(); }
  /// Failed undirected links, canonical (lower (node, port) endpoint), in
  /// the order they were recorded (switch failures expand to their links).
  const std::vector<std::pair<int, int>>& failed_links() const { return links_; }
  /// Failed switches, in the order they were recorded.
  const std::vector<int>& failed_switches() const { return switches_; }
  /// True when the undirected link at (node, port) is failed (either
  /// endpoint may be given).
  bool link_failed(int node, int port) const;
  /// The topology this set was validated against.
  const Topology& topology() const { return *topo_; }

  /// Order-insensitive content digest (two sets failing the same links hash
  /// equal regardless of recording order) — the query engine's variant key.
  std::uint64_t digest() const;

 private:
  std::pair<int, int> canonical(int node, int port) const;
  void check_link(int node, int port) const;

  const Topology* topo_;
  std::vector<std::pair<int, int>> links_;
  std::vector<int> switches_;
  std::vector<char> dead_;  // flattened per-(node, port) flag
  std::vector<int> port_offset_;
};

/// The degraded view of `base` under `faults`.  Same nodes, ports, links and
/// output bundles (stable channel structure); fault-aware route() /
/// distance() / reachable() / link_ok().  Construction runs one backward
/// survivor BFS per affected destination, so the object is immutable and
/// thread-safe afterwards.  Base and faults must outlive the decorator.
class FaultedTopology final : public Topology {
 public:
  FaultedTopology(const Topology& base, const FaultSet& faults);

  std::string name() const override;
  int num_nodes() const override { return base_->num_nodes(); }
  int num_processors() const override { return base_->num_processors(); }
  NodeKind kind(int node) const override { return base_->kind(node); }
  int num_ports(int node) const override { return base_->num_ports(node); }
  int neighbor(int node, int port) const override {
    return base_->neighbor(node, port);
  }
  int neighbor_port(int node, int port) const override {
    return base_->neighbor_port(node, port);
  }
  std::vector<PortBundle> output_bundles(int node) const override {
    return base_->output_bundles(node);
  }

  bool link_ok(int node, int port) const override {
    return !faults_->link_failed(node, port);
  }
  bool reachable(int src_proc, int dst_proc) const override;

  RouteOptions route(int node, int dest) const override;
  std::array<double, 4> route_split(int node, int dest,
                                    const RouteOptions& opts) const override;
  /// Survivor-graph distance.  Precondition: reachable(src, dst).
  int distance(int src_proc, int dst_proc) const override;
  /// Mean survivor distance over REACHABLE ordered pairs of distinct
  /// processors (unreachable pairs carry no traffic, so they are excluded
  /// rather than poisoning the mean with infinity).
  double mean_distance() const override;

  // Link attributes pass through: a dead link keeps its nameplate numbers —
  // it simply carries no flow.
  int lanes(int node, int port) const override { return base_->lanes(node, port); }
  double bandwidth(int node, int port) const override {
    return base_->bandwidth(node, port);
  }
  double link_latency(int node, int port) const override {
    return base_->link_latency(node, port);
  }
  int buffer_depth(int node, int port) const override {
    return base_->buffer_depth(node, port);
  }

  // Symmetry: forwarded only for an empty fault set (see file comment).
  bool has_symmetry(const std::vector<int>& pinned_procs) const override {
    return faults_->empty() && base_->has_symmetry(pinned_procs);
  }
  std::uint64_t proc_symmetry_key(int proc,
                                  const std::vector<int>& pins) const override {
    return base_->proc_symmetry_key(proc, pins);
  }
  std::uint64_t channel_symmetry_key(int node, int port,
                                     const std::vector<int>& pins) const override {
    return base_->channel_symmetry_key(node, port, pins);
  }

  const Topology& base() const { return *base_; }
  const FaultSet& faults() const { return *faults_; }

  /// Destination processors whose routing differs from the base (some base
  /// minimal route crossed a failed element); only these get survivor-BFS
  /// tables.
  const std::vector<int>& affected_destinations() const { return affected_; }
  /// True when routing toward `dest` differs from the base topology.
  bool destination_affected(int dest) const {
    return affected_index_[static_cast<std::size_t>(dest)] >= 0;
  }
  /// A witness (src, dst) pair with no surviving path, if any.
  std::optional<std::pair<int, int>> first_unreachable_pair() const;
  /// Fraction of ordered distinct processor pairs with no surviving path.
  double unreachable_pair_fraction() const;

 private:
  const std::vector<int>& dist_to(int dest) const {
    return dist_tables_[static_cast<std::size_t>(
        affected_index_[static_cast<std::size_t>(dest)])];
  }

  const Topology* base_;
  const FaultSet* faults_;
  std::vector<int> affected_;        // affected destination processors
  std::vector<int> affected_index_;  // proc -> index into dist_tables_, -1
  std::vector<std::vector<int>> dist_tables_;  // survivor dist, -1 unreachable
  std::vector<int> port_bundle_;        // flattened [node][port] -> bundle id
  std::vector<int> port_bundle_offset_; // per-node offset into port_bundle_
  long unreachable_pairs_ = 0;
  double mean_distance_ = 0.0;
};

}  // namespace wormnet::topo
