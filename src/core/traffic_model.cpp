#include "core/traffic_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/channels.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace wormnet::core {

namespace {

/// Shared worker pool for the default (threads = 0) builder.  Function-local
/// static: created on the first parallel build, sized to the hardware, and
/// reused by every subsequent build so small topologies don't pay a pool
/// spin-up per call.  Builds never run on this pool's own workers (the
/// builder is only ever called from user threads), so parallel_for's global
/// wait cannot deadlock.
util::ThreadPool& builder_pool() {
  static util::ThreadPool pool;
  return pool;
}

/// Cached routing of one node toward the pass destination: candidate ports,
/// their outgoing channel ids and far-end nodes, and the route_split
/// probabilities.  Filled once per visited node during the DFS and reused by
/// the propagation sweep, halving the virtual route()/route_split() calls —
/// the builder's hottest non-arithmetic cost.
struct NodeRoutes {
  int count = 0;
  std::array<int, 4> port{};
  std::array<int, 4> channel{};
  std::array<int, 4> neighbor{};
  std::array<double, 4> split{};
};

/// One merged flow fragment entering a node: where it came from, its rate,
/// and its QNA "self-mass" — the Σ flow_i · frac_i over the source
/// sub-streams it merges, where frac_i is sub-stream i's cumulative split
/// fraction of its source's original injection process.  Splitting with
/// probability p maps (flow, self) → (flow·p, self·p²) — each sub-stream's
/// flow AND frac both scale by p — and merging adds componentwise, so the
/// self-mass is exactly as shard-additive as the rate.
struct FlowFragment {
  int in_ch = 0;      ///< incoming channel; kNoChannel marks injections
  double flow = 0.0;  ///< message rate at unit injection
  double self = 0.0;  ///< Σ flow·frac of the merged source sub-streams
};

/// Scratch state for one destination's flow-propagation pass, reused across
/// the destinations of one shard so each worker allocates O(nodes +
/// channels) once.
struct DestinationPass {
  /// Per node: flow fragments accumulated this pass.
  std::vector<std::vector<FlowFragment>> in_flows;
  std::vector<char> visited;
  std::vector<int> order;           ///< DFS postorder of the route DAG toward dst
  std::vector<NodeRoutes> routes;   ///< valid for visited nodes only

  explicit DestinationPass(int num_nodes)
      : in_flows(static_cast<std::size_t>(num_nodes)),
        visited(static_cast<std::size_t>(num_nodes), 0),
        routes(static_cast<std::size_t>(num_nodes)) {}

  void reset() {
    for (int node : order) {
      in_flows[static_cast<std::size_t>(node)].clear();
      visited[static_cast<std::size_t>(node)] = 0;
    }
    order.clear();
  }
};

/// Private accumulators of one destination shard.  Each shard owns a full
/// copy of the per-channel totals; the reduction adds them back together in
/// fixed shard order so the result cannot depend on scheduling.
struct ShardAccum {
  std::vector<double> rate;    ///< per channel
  std::vector<double> self;    ///< per channel, QNA self-mass (see FlowFragment)
  std::vector<double> onward;  ///< flat (channel, continuation port) flows
  double weighted_distance = 0.0;
  double total_weight = 0.0;       ///< Σ pair weights seen (all demand)
  double unroutable_weight = 0.0;  ///< Σ pair weights with no surviving path
};

/// Iterative DFS from `start` following route(node, dst) edges, appending
/// the postorder to `pass.order` and caching each visited node's routing in
/// `pass.routes`.  Reverse postorder is a topological order of the route
/// DAG (candidates strictly decrease the distance to dst, so the graph is
/// acyclic).
void dfs_route_dag(const topo::Topology& topo, const topo::ChannelTable& ct,
                   int start, int dst, DestinationPass& pass) {
  struct Frame {
    int node;
    int next_candidate;
  };
  if (pass.visited[static_cast<std::size_t>(start)]) return;
  const auto visit = [&](int node) {
    pass.visited[static_cast<std::size_t>(node)] = 1;
    NodeRoutes& nr = pass.routes[static_cast<std::size_t>(node)];
    const topo::RouteOptions opts = topo.route(node, dst);
    nr.count = opts.size();
    if (nr.count == 0) return;  // dst itself: consume, nothing to cache
    const std::array<double, 4> split = topo.route_split(node, dst, opts);
    for (int i = 0; i < nr.count; ++i) {
      const int port = opts[i];
      nr.port[static_cast<std::size_t>(i)] = port;
      nr.channel[static_cast<std::size_t>(i)] = ct.from(node, port);
      nr.neighbor[static_cast<std::size_t>(i)] = topo.neighbor(node, port);
      nr.split[static_cast<std::size_t>(i)] = split[static_cast<std::size_t>(i)];
      WORMNET_ENSURES(nr.neighbor[static_cast<std::size_t>(i)] != topo::kNoNode);
    }
  };
  std::vector<Frame> stack;
  stack.push_back({start, 0});
  visit(start);
  while (!stack.empty()) {
    Frame& top = stack.back();
    const NodeRoutes& nr = pass.routes[static_cast<std::size_t>(top.node)];
    if (top.next_candidate >= nr.count) {
      pass.order.push_back(top.node);
      stack.pop_back();
      continue;
    }
    const int nbr = nr.neighbor[static_cast<std::size_t>(top.next_candidate++)];
    if (pass.visited[static_cast<std::size_t>(nbr)]) continue;
    visit(nbr);
    stack.push_back({nbr, 0});
  }
}

/// The flow-propagation sweep over one destination's route DAG, shared by
/// the dense shard pass and the delta-retune pass (which differ only in
/// where the accumulations land and what seeded the DAG).  Walks
/// `pass.order` in reverse (topological order: a node's in-flows are
/// complete before it splits them across its route candidates) and emits
/// every accumulation through the two policy callbacks, in the exact order
/// the historical in-line loop performed them — the policies are inlined,
/// so shard builds stay bitwise-identical to the pre-refactor code:
///   add_rate(ch, flow, self)       — per-channel rate / QNA self-mass
///   add_onward(in_ch, port, flow)  — per-(channel, continuation port) flow
template <typename AddRate, typename AddOnward>
void propagate_flows(int d, DestinationPass& pass, AddRate&& add_rate,
                     AddOnward&& add_onward) {
  for (auto it = pass.order.rbegin(); it != pass.order.rend(); ++it) {
    const int node = *it;
    const auto& inputs = pass.in_flows[static_cast<std::size_t>(node)];
    if (inputs.empty()) continue;  // d itself, or an unfed DFS visit
    WORMNET_ENSURES(node != d);    // flows into d are consumed, never split
    const NodeRoutes& nr = pass.routes[static_cast<std::size_t>(node)];
    // A node holding flow toward d with no route candidates would silently
    // drop Kirchhoff mass.  Unroutable demand is filtered at the SEEDS
    // (Topology::reachable), so reaching this state means the topology is
    // malformed — name the node instead of corrupting the model.
    if (nr.count == 0)
      throw std::runtime_error(
          "build_traffic_model: flow toward destination " + std::to_string(d) +
          " dead-ends at node " + std::to_string(node) +
          " (no route candidates; disconnected or malformed topology — run "
          "topo::check_connectivity)");
    double total = 0.0;
    double total_self = 0.0;
    for (const FlowFragment& in : inputs) {
      total += in.flow;
      total_self += in.self;
    }
    for (int i = 0; i < nr.count; ++i) {
      const double p = nr.split[static_cast<std::size_t>(i)];
      if (p <= 0.0) continue;
      const int port = nr.port[static_cast<std::size_t>(i)];
      const int ch = nr.channel[static_cast<std::size_t>(i)];
      WORMNET_ENSURES(ch != topo::kNoChannel);
      add_rate(ch, total * p, total_self * p * p);
      for (const FlowFragment& in : inputs) {
        if (in.in_ch == topo::kNoChannel) continue;
        add_onward(in.in_ch, port, in.flow * p);
      }
      const int nbr = nr.neighbor[static_cast<std::size_t>(i)];
      if (nbr == d) continue;  // ejection channel: consumed at the destination
      pass.in_flows[static_cast<std::size_t>(nbr)].push_back(
          {ch, total * p, total_self * p * p});
    }
  }
}

/// One shard's work: run the flow-propagation pass for every destination in
/// [dst_lo, dst_hi), accumulating into the shard's private buffers.
/// `dest_sources`, when non-null, lists each destination's positive-weight
/// sources in ascending order — the seeds land in the same order with the
/// same values as the full scan (which skips w <= 0 anyway), so the sparse
/// path is bitwise-identical to the dense one, just without the O(N) scan
/// per destination that dominates fixed-permutation builds.
void run_shard(const topo::Topology& topo, const topo::ChannelTable& ct,
               const traffic::TrafficSpec& spec,
               const std::vector<int>& onward_off,
               const std::vector<std::vector<int>>* dest_sources, int dst_lo,
               int dst_hi, ShardAccum& acc) {
  const int procs = topo.num_processors();
  acc.rate.assign(static_cast<std::size_t>(ct.size()), 0.0);
  acc.self.assign(static_cast<std::size_t>(ct.size()), 0.0);
  acc.onward.assign(static_cast<std::size_t>(onward_off.back()), 0.0);
  acc.weighted_distance = 0.0;
  acc.total_weight = 0.0;
  acc.unroutable_weight = 0.0;

  DestinationPass pass(topo.num_nodes());
  for (int d = dst_lo; d < dst_hi; ++d) {
    // Seed the pass: every source with weight toward d injects its flow.
    // The (s → d) sub-stream is the destination split of s's injection
    // process: fraction w / injection_weight of it, hence self = w · frac.
    // Demand toward an unreachable destination (faulted fabrics) is dropped
    // at the source and counted — the model degrades instead of asserting.
    const auto seed = [&](int s) {
      const double w = spec.pair_weight(s, d, procs);
      if (w <= 0.0) return;
      acc.total_weight += w;
      if (!topo.reachable(s, d)) {
        acc.unroutable_weight += w;
        return;
      }
      acc.weighted_distance += w * topo.distance(s, d);
      const double frac = w / spec.injection_weight(s, procs);
      pass.in_flows[static_cast<std::size_t>(s)].push_back(
          {topo::kNoChannel, w, w * frac});
      dfs_route_dag(topo, ct, s, d, pass);
    };
    if (dest_sources != nullptr) {
      for (int s : (*dest_sources)[static_cast<std::size_t>(d)]) seed(s);
    } else {
      for (int s = 0; s < procs; ++s) {
        if (s != d) seed(s);
      }
    }
    propagate_flows(
        d, pass,
        [&](int ch, double flow, double self) {
          acc.rate[static_cast<std::size_t>(ch)] += flow;
          acc.self[static_cast<std::size_t>(ch)] += self;
        },
        [&](int in_ch, int port, double flow) {
          acc.onward[static_cast<std::size_t>(
              onward_off[static_cast<std::size_t>(in_ch)] + port)] += flow;
        });
    pass.reset();
  }
}

/// Output-bundle membership: bundle_of[channel] is a dense id unique per
/// (node, bundle); bundle_size[channel] is its server count m.
void label_bundles(const topo::Topology& topo, const topo::ChannelTable& ct,
                   std::vector<int>& bundle_of, std::vector<int>& bundle_size) {
  bundle_of.assign(static_cast<std::size_t>(ct.size()), -1);
  bundle_size.assign(static_cast<std::size_t>(ct.size()), 1);
  int next_bundle = 0;
  for (int node = 0; node < topo.num_nodes(); ++node) {
    for (const topo::PortBundle& pb : topo.output_bundles(node)) {
      for (int i = 0; i < pb.count; ++i) {
        const int ch = ct.from(node, pb[i]);
        if (ch == topo::kNoChannel) continue;
        bundle_of[static_cast<std::size_t>(ch)] = next_bundle;
        bundle_size[static_cast<std::size_t>(ch)] = pb.count;
      }
      ++next_bundle;
    }
  }
}

/// The symmetry-collapsed builder: one flow-propagation pass per destination
/// ORBIT, scaled by the orbit size, accumulated per channel CLASS.  With
/// classes that are true orbits of a routing-preserving group fixing the
/// spec's pins, Σ_{ch∈C} rate_d(ch) is the same for every destination d in
/// one orbit (the group maps the pass for d to the pass for g·d while
/// permuting C onto itself), so |orbit| × (representative pass) equals the
/// dense sum over the class exactly — the identity the parity tests pin
/// down.  Work and memory are O(orbits · channels) and O(classes²) instead
/// of the dense path's O(N · channels) passes and O(channels) state.
GeneralModel build_collapsed(const topo::Topology& topo,
                             const topo::ChannelTable& ct,
                             const traffic::TrafficSpec& spec,
                             const topo::SymmetryClasses& sym,
                             const SolveOptions& opts) {
  const int procs = topo.num_processors();
  const int num_channels = ct.size();
  const int ncls = sym.num_channel_classes;
  const int norb = sym.num_proc_orbits;
  WORMNET_EXPECTS(static_cast<int>(sym.proc_orbit.size()) == procs);
  WORMNET_EXPECTS(static_cast<int>(sym.channel_class.size()) == num_channels);
  WORMNET_EXPECTS(ncls > 0 && norb > 0);

  // Destination-orbit representatives (first member) and sizes.
  std::vector<int> orbit_rep(static_cast<std::size_t>(norb), -1);
  std::vector<double> orbit_size(static_cast<std::size_t>(norb), 0.0);
  for (int p = 0; p < procs; ++p) {
    const int o = sym.proc_orbit[static_cast<std::size_t>(p)];
    WORMNET_EXPECTS(o >= 0 && o < norb);
    if (orbit_rep[static_cast<std::size_t>(o)] < 0)
      orbit_rep[static_cast<std::size_t>(o)] = p;
    orbit_size[static_cast<std::size_t>(o)] += 1.0;
  }

  std::vector<int> bundle_of;
  std::vector<int> bundle_size;
  label_bundles(topo, ct, bundle_of, bundle_size);
  // Return-bundle ids: rev_bundle[ch] is the bundle a worm leaving ch would
  // use to go straight back.  Transitions into the return bundle form a
  // transition orbit distinct from same-class transitions away from it (a
  // fat-tree LCA turn never descends into the block it climbed out of), so
  // the structural fan-out count k below is tagged by return-ness.
  std::vector<int> rev_bundle(static_cast<std::size_t>(num_channels), -1);
  for (int ch = 0; ch < num_channels; ++ch) {
    rev_bundle[static_cast<std::size_t>(ch)] =
        bundle_of[static_cast<std::size_t>(ct.reverse(ch))];
  }

  std::vector<double> cls_rate(static_cast<std::size_t>(ncls), 0.0);
  std::vector<double> cls_self(static_cast<std::size_t>(ncls), 0.0);
  std::vector<double> trans(
      static_cast<std::size_t>(ncls) * static_cast<std::size_t>(ncls), 0.0);
  // Transition orbits observed during the passes, keyed (from-class,
  // to-class, into-the-return-bundle?).
  std::vector<unsigned char> seen_trans(
      static_cast<std::size_t>(ncls) * static_cast<std::size_t>(ncls) * 2, 0);
  double dist_sum = 0.0;
  double total_weight = 0.0;
  double unroutable_weight = 0.0;

  DestinationPass pass(topo.num_nodes());
  for (int o = 0; o < norb; ++o) {
    const int d = orbit_rep[static_cast<std::size_t>(o)];
    const double scale = orbit_size[static_cast<std::size_t>(o)];
    for (int s = 0; s < procs; ++s) {
      if (s == d) continue;
      const double w = spec.pair_weight(s, d, procs);
      if (w <= 0.0) continue;
      total_weight += scale * w;
      if (!topo.reachable(s, d)) {
        // Orbit transitivity extends the representative's unroutable pairs
        // to the whole orbit — exact for true routing symmetries.
        unroutable_weight += scale * w;
        continue;
      }
      dist_sum += scale * w * topo.distance(s, d);
      const double frac = w / spec.injection_weight(s, procs);
      pass.in_flows[static_cast<std::size_t>(s)].push_back(
          {topo::kNoChannel, w, w * frac});
      dfs_route_dag(topo, ct, s, d, pass);
    }
    // Same propagation as the dense run_shard, accumulating per class.
    for (auto it = pass.order.rbegin(); it != pass.order.rend(); ++it) {
      const int node = *it;
      const auto& inputs = pass.in_flows[static_cast<std::size_t>(node)];
      if (inputs.empty()) continue;
      WORMNET_ENSURES(node != d);
      const NodeRoutes& nr = pass.routes[static_cast<std::size_t>(node)];
      if (nr.count == 0)
        throw std::runtime_error(
            "build_traffic_model: flow toward destination " +
            std::to_string(d) + " dead-ends at node " + std::to_string(node) +
            " (no route candidates; disconnected or malformed topology — run "
            "topo::check_connectivity)");
      double total = 0.0;
      double total_self = 0.0;
      for (const FlowFragment& in : inputs) {
        total += in.flow;
        total_self += in.self;
      }
      for (int i = 0; i < nr.count; ++i) {
        const double p = nr.split[static_cast<std::size_t>(i)];
        if (p <= 0.0) continue;
        const int ch = nr.channel[static_cast<std::size_t>(i)];
        WORMNET_ENSURES(ch != topo::kNoChannel);
        const int co = sym.channel_class[static_cast<std::size_t>(ch)];
        cls_rate[static_cast<std::size_t>(co)] += scale * total * p;
        cls_self[static_cast<std::size_t>(co)] += scale * total_self * p * p;
        for (const FlowFragment& in : inputs) {
          if (in.in_ch == topo::kNoChannel) continue;
          const int ci = sym.channel_class[static_cast<std::size_t>(in.in_ch)];
          trans[static_cast<std::size_t>(ci) * static_cast<std::size_t>(ncls) +
                static_cast<std::size_t>(co)] += scale * in.flow * p;
          const int tag =
              bundle_of[static_cast<std::size_t>(ch)] ==
                      rev_bundle[static_cast<std::size_t>(in.in_ch)]
                  ? 1
                  : 0;
          seen_trans[(static_cast<std::size_t>(ci) *
                          static_cast<std::size_t>(ncls) +
                      static_cast<std::size_t>(co)) *
                         2 +
                     static_cast<std::size_t>(tag)] = 1;
        }
        const int nbr = nr.neighbor[static_cast<std::size_t>(i)];
        if (nbr == d) continue;
        pass.in_flows[static_cast<std::size_t>(nbr)].push_back(
            {ch, total * p, total_self * p * p});
      }
    }
    pass.reset();
  }

  // Class representatives and member counts; a class must be one queueing
  // station, so structural disagreement inside a class is a hard error even
  // for user-declared partitions (rate disagreement — a partition that is
  // no routing symmetry — is what check_collapsed_parity reports).
  std::vector<int> cls_rep(static_cast<std::size_t>(ncls), -1);
  std::vector<double> cls_count(static_cast<std::size_t>(ncls), 0.0);
  for (int ch = 0; ch < num_channels; ++ch) {
    const int c = sym.channel_class[static_cast<std::size_t>(ch)];
    WORMNET_EXPECTS(c >= 0 && c < ncls);
    if (cls_rep[static_cast<std::size_t>(c)] < 0)
      cls_rep[static_cast<std::size_t>(c)] = ch;
    cls_count[static_cast<std::size_t>(c)] += 1.0;
    const int rep = cls_rep[static_cast<std::size_t>(c)];
    WORMNET_EXPECTS(bundle_size[static_cast<std::size_t>(ch)] ==
                    bundle_size[static_cast<std::size_t>(rep)]);
    WORMNET_EXPECTS(ct.lanes(ch) == ct.lanes(rep));
    WORMNET_EXPECTS(ct.bandwidth(ch) == ct.bandwidth(rep));
    WORMNET_EXPECTS(ct.link_latency(ch) == ct.link_latency(rep));
    WORMNET_EXPECTS(ct.buffer_depth(ch) == ct.buffer_depth(rep));
    WORMNET_EXPECTS(topo.is_processor(ct.at(ch).dst_node) ==
                    topo.is_processor(ct.at(rep).dst_node));
    WORMNET_EXPECTS(topo.is_processor(ct.at(ch).src_node) ==
                    topo.is_processor(ct.at(rep).src_node));
  }

  GeneralModel net;
  for (int c = 0; c < ncls; ++c) {
    const int rep = cls_rep[static_cast<std::size_t>(c)];
    WORMNET_EXPECTS(rep >= 0);  // every class id must have members
    const topo::DirectedChannel& dc = ct.at(rep);
    ChannelClass cls;
    cls.label = "cls" + std::to_string(c) + "@ch" + std::to_string(dc.src_node) +
                ":" + std::to_string(dc.src_port);
    cls.servers = bundle_size[static_cast<std::size_t>(rep)];
    cls.lanes = ct.lanes(rep);
    // Link attributes from the representative — exact, because the EXPECTS
    // above pinned them constant across the class (and topology_symmetry
    // already fell back to dense when a declared class mixed attributes).
    cls.bandwidth = ct.bandwidth(rep);
    cls.link_latency = ct.link_latency(rep);
    cls.buffer_depth = ct.buffer_depth(rep);
    cls.rate_per_link =
        cls_rate[static_cast<std::size_t>(c)] / cls_count[static_cast<std::size_t>(c)];
    cls.terminal = topo.is_processor(dc.dst_node);
    // Same QNA pinning as the dense builder: injection channels carry their
    // source's undivided process.
    if (topo.is_processor(dc.src_node)) {
      cls.self_frac = 1.0;
    } else if (cls_rate[static_cast<std::size_t>(c)] > 0.0) {
      cls.self_frac = std::min(1.0, cls_self[static_cast<std::size_t>(c)] /
                                        cls_rate[static_cast<std::size_t>(c)]);
    }
    const int id = net.graph.add_channel(cls);
    WORMNET_ENSURES(id == c);
    net.labels[cls.label] = id;
  }

  // Transitions.  weight(C→C') folds the dense per-channel weights; the
  // dense route_prob targets ONE output bundle, so divide by the structural
  // fan-out k = how many distinct bundles of class C' the representative
  // member feeds.  k is counted at the representative's far-end node against
  // the transition orbits observed above — e.g. a fat-tree up channel
  // turning down feeds 3 of the 4 child bundles (never the one it climbed
  // out of, which is why return-ness tags the orbits), so k = 3 and
  // route_prob = weight/3, the dense pd/3.  Orbit transitivity spreads the
  // class flow equally over those k bundles, so weight/k is the dense
  // per-bundle probability exactly.
  std::vector<int> fanout(static_cast<std::size_t>(ncls), 0);
  std::vector<int> touched;
  std::vector<int> seen_bundles;
  for (int ci = 0; ci < ncls; ++ci) {
    if (net.graph.at(ci).terminal) continue;
    const double total = cls_rate[static_cast<std::size_t>(ci)];
    if (total <= 0.0) continue;
    const int rep = cls_rep[static_cast<std::size_t>(ci)];
    const int node = ct.at(rep).dst_node;
    const int ret = rev_bundle[static_cast<std::size_t>(rep)];
    touched.clear();
    seen_bundles.clear();
    for (int port = 0; port < topo.num_ports(node); ++port) {
      const int out_ch = ct.from(node, port);
      if (out_ch == topo::kNoChannel) continue;
      const int b = bundle_of[static_cast<std::size_t>(out_ch)];
      if (std::find(seen_bundles.begin(), seen_bundles.end(), b) !=
          seen_bundles.end()) {
        continue;
      }
      seen_bundles.push_back(b);
      const int cj = sym.channel_class[static_cast<std::size_t>(out_ch)];
      const int tag = b == ret ? 1 : 0;
      if (seen_trans[(static_cast<std::size_t>(ci) *
                          static_cast<std::size_t>(ncls) +
                      static_cast<std::size_t>(cj)) *
                         2 +
                     static_cast<std::size_t>(tag)]) {
        if (fanout[static_cast<std::size_t>(cj)] == 0) touched.push_back(cj);
        ++fanout[static_cast<std::size_t>(cj)];
      }
    }
    for (int cj = 0; cj < ncls; ++cj) {
      const double flow = trans[static_cast<std::size_t>(ci) *
                                    static_cast<std::size_t>(ncls) +
                                static_cast<std::size_t>(cj)];
      if (flow <= 0.0) continue;
      const double weight = std::min(1.0, flow / total);
      const int k = std::max(1, fanout[static_cast<std::size_t>(cj)]);
      net.graph.add_transition(ci, cj, weight, weight / static_cast<double>(k));
    }
    for (int cj : touched) fanout[static_cast<std::size_t>(cj)] = 0;
  }

  // One injection entry per injection class, weighted by how many
  // processors it stands for — the weighted latency average then equals the
  // dense per-processor uniform average.
  std::vector<double> inj_weight(static_cast<std::size_t>(ncls), 0.0);
  int injecting = 0;
  for (int p = 0; p < procs; ++p) {
    if (spec.injection_weight(p, procs) <= 0.0) continue;
    const int inj = ct.from(p, 0);
    WORMNET_ENSURES(inj != topo::kNoChannel);
    inj_weight[static_cast<std::size_t>(
        sym.channel_class[static_cast<std::size_t>(inj)])] += 1.0;
    ++injecting;
  }
  WORMNET_EXPECTS(injecting > 0);
  for (int c = 0; c < ncls; ++c) {
    if (inj_weight[static_cast<std::size_t>(c)] <= 0.0) continue;
    net.injection_classes.push_back(c);
    net.injection_class_weights.push_back(inj_weight[static_cast<std::size_t>(c)]);
  }
  net.mean_distance = dist_sum / injecting;
  net.unroutable_fraction =
      total_weight > 0.0 ? unroutable_weight / total_weight : 0.0;
  net.channel_class_of = sym.channel_class;
  net.model_name = "traffic-sym(" + topo.name() + ", " + spec.name() + ")";
  net.opts = opts;

  const std::string problems = net.graph.validate();
  WORMNET_ENSURES(problems.empty());
  return net;
}

/// The resolved build strategy of one (spec, build-options) pair — the
/// ladder build_traffic_model historically ran in-line, extracted so the
/// delta-retune path can re-plan against a NEW spec with identical rules.
struct CollapsePlan {
  bool use_collapsed = false;       ///< symmetric quotient applies
  topo::SymmetryClasses sym;        ///< valid when use_collapsed
  bool sparse_seed = false;         ///< fixed-destination source lists apply
  std::vector<std::vector<int>> dest_sources;  ///< valid when sparse_seed
};

/// Collapse strategy: under Auto the symmetric quotient (a user-declared
/// partition wins over the topology's own hooks); otherwise per-channel
/// classes, with sparse seeding whenever the spec has fixed destinations.
CollapsePlan plan_collapse(const topo::Topology& topo,
                           const topo::ChannelTable& ct,
                           const traffic::TrafficSpec& spec,
                           const TrafficBuildOptions& build) {
  const int procs = topo.num_processors();
  CollapsePlan plan;
  if (build.collapse == CollapseMode::Auto) {
    if (build.user_classes != nullptr) {
      plan.sym = *build.user_classes;
      plan.use_collapsed = true;
      return plan;
    }
    std::vector<int> pins;
    if (spec.symmetric(pins) &&
        topo::topology_symmetry(topo, ct, pins, plan.sym) &&
        !plan.sym.trivial(procs) &&
        plan.sym.num_channel_classes <= TrafficBuildOptions::kMaxSymmetryClasses) {
      plan.use_collapsed = true;
      return plan;
    }
  }
  if (spec.fixed_destination(0, procs) >= 0) {
    plan.dest_sources.assign(static_cast<std::size_t>(procs), {});
    for (int s = 0; s < procs; ++s) {
      const int d = spec.fixed_destination(s, procs);
      // Ascending s per destination: identical seed order to the scan.
      plan.dest_sources[static_cast<std::size_t>(d)].push_back(s);
    }
    plan.sparse_seed = true;
  }
  return plan;
}

/// The dense builder's retained intermediate: everything the assembly step
/// consumes, and — because the flow DP is LINEAR in its (src, dst) seeds —
/// everything a delta-retune needs to update in place when pair weights
/// change (RetunableTrafficModel).
struct DenseFlowState {
  std::vector<int> onward_off;   ///< flat (channel, continuation port) offsets
  std::vector<int> bundle_of;    ///< output-bundle id per channel
  std::vector<int> bundle_size;  ///< m of that bundle
  std::vector<double> rate;      ///< per channel, unit injection
  std::vector<double> self;      ///< per channel, QNA self-mass
  std::vector<double> onward;    ///< flat continuation flows
  double weighted_distance = 0.0;
  double total_weight = 0.0;       ///< Σ pair weights (all demand)
  double unroutable_weight = 0.0;  ///< Σ pair weights dropped at the source
};

/// Run the sharded per-destination passes for the whole spec, filling
/// `st` (replacing any previous contents).
void propagate_dense(const topo::Topology& topo, const topo::ChannelTable& ct,
                     const traffic::TrafficSpec& spec,
                     const TrafficBuildOptions& build,
                     const std::vector<std::vector<int>>* dest_sources,
                     DenseFlowState& st) {
  const int procs = topo.num_processors();
  const int num_channels = ct.size();

  // Flat offsets for the per-(channel, continuation port) flows — the
  // continuation port is on the channel's dst node, so one dense slab with
  // per-channel offsets makes every update O(1) and cache-friendly.
  st.onward_off.assign(static_cast<std::size_t>(num_channels) + 1, 0);
  for (int ch = 0; ch < num_channels; ++ch) {
    st.onward_off[static_cast<std::size_t>(ch) + 1] =
        st.onward_off[static_cast<std::size_t>(ch)] +
        topo.num_ports(ct.at(ch).dst_node);
  }

  // Destination shards.  The shard count and boundaries depend on the
  // processor count ONLY — never on the worker count — and the reduction
  // below runs in shard order, so the built model is bitwise-identical for
  // every TrafficBuildOptions::threads value (tested).  16 shards caps the
  // parallel speedup at 16× while keeping the private-accumulator memory
  // (one rate+onward copy per shard) and the reduction cost negligible.
  const int num_shards = std::min(procs, 16);
  std::vector<ShardAccum> accs(static_cast<std::size_t>(num_shards));
  const auto shard_job = [&](std::int64_t j) {
    const int lo = static_cast<int>(j) * procs / num_shards;
    const int hi = (static_cast<int>(j) + 1) * procs / num_shards;
    run_shard(topo, ct, spec, st.onward_off, dest_sources, lo, hi,
              accs[static_cast<std::size_t>(j)]);
  };
  // threads = 0 ("auto") also runs serially below the cutoff: at those sizes
  // the fork/join overhead exceeds the whole build, and the fixed-shard
  // contract makes the fallback bitwise-invisible (tested either side of
  // the boundary).
  if (build.threads == 1 || num_shards == 1 ||
      (build.threads == 0 &&
       procs <= TrafficBuildOptions::kSerialCutoffProcs)) {
    for (int j = 0; j < num_shards; ++j) shard_job(j);
  } else if (build.threads == 0) {
    util::parallel_for(builder_pool(), num_shards, shard_job);
  } else {
    util::ThreadPool pool(build.threads);
    util::parallel_for(pool, num_shards, shard_job);
  }

  // Deterministic reduction: shard partials added back in shard (i.e.
  // ascending destination-range) order.
  st.rate.assign(static_cast<std::size_t>(num_channels), 0.0);
  st.self.assign(static_cast<std::size_t>(num_channels), 0.0);
  st.onward.assign(static_cast<std::size_t>(st.onward_off.back()), 0.0);
  st.weighted_distance = 0.0;
  st.total_weight = 0.0;
  st.unroutable_weight = 0.0;
  for (const ShardAccum& acc : accs) {
    for (std::size_t i = 0; i < st.rate.size(); ++i) st.rate[i] += acc.rate[i];
    for (std::size_t i = 0; i < st.self.size(); ++i) st.self[i] += acc.self[i];
    for (std::size_t i = 0; i < st.onward.size(); ++i)
      st.onward[i] += acc.onward[i];
    st.weighted_distance += acc.weighted_distance;
    st.total_weight += acc.total_weight;
    st.unroutable_weight += acc.unroutable_weight;
  }

  label_bundles(topo, ct, st.bundle_of, st.bundle_size);
}

/// Assemble the per-physical-channel GeneralModel from a propagated flow
/// state: channel classes, transitions, injection classes, mean distance.
/// O(channels + transitions) — the cheap tail every delta-retune re-runs.
GeneralModel assemble_dense(const topo::Topology& topo,
                            const topo::ChannelTable& ct,
                            const traffic::TrafficSpec& spec,
                            const SolveOptions& opts,
                            const DenseFlowState& st) {
  const int procs = topo.num_processors();
  const int num_channels = ct.size();
  const std::vector<double>& rate = st.rate;
  const std::vector<double>& self = st.self;
  const std::vector<double>& onward = st.onward;
  const std::vector<int>& onward_off = st.onward_off;
  const std::vector<int>& bundle_of = st.bundle_of;
  const std::vector<int>& bundle_size = st.bundle_size;

  GeneralModel net;
  for (int ch = 0; ch < num_channels; ++ch) {
    const topo::DirectedChannel& dc = ct.at(ch);
    ChannelClass c;
    c.label = "ch" + std::to_string(dc.src_node) + ":" + std::to_string(dc.src_port);
    c.servers = bundle_size[static_cast<std::size_t>(ch)];
    c.lanes = ct.lanes(ch);
    c.bandwidth = ct.bandwidth(ch);
    c.link_latency = ct.link_latency(ch);
    c.buffer_depth = ct.buffer_depth(ch);
    c.rate_per_link = rate[static_cast<std::size_t>(ch)];
    c.terminal = topo.is_processor(dc.dst_node);
    // QNA burstiness retention.  Injection channels carry their source's
    // UNDIVIDED process — the destination split is logical, not physical,
    // so the fragment-level merge (which would treat the per-destination
    // sub-streams as independent and mostly Poissonify them) is overridden
    // with the exact value 1.  Downstream, the fragment-level sum is the
    // QNA split/merge approximation; min() guards the ≤ 1 invariant
    // against last-ulp float drift.
    if (topo.is_processor(dc.src_node)) {
      c.self_frac = 1.0;
    } else if (c.rate_per_link > 0.0) {
      c.self_frac = std::min(
          1.0, self[static_cast<std::size_t>(ch)] / c.rate_per_link);
    }
    const int id = net.graph.add_channel(c);
    WORMNET_ENSURES(id == ch);  // 1:1 channel table <-> class ids
    net.labels[c.label] = id;
  }

  // Small fixed-capacity (bundle → flow) map: a node's continuation ports
  // target a handful of output bundles (≤ ports, ≤ 11 on the 10-cube), so a
  // linear scan over a stack array beats the std::map this loop used to
  // allocate per channel.
  struct BundleFlow {
    int bundle = -1;
    double flow = 0.0;
  };
  for (int ch = 0; ch < num_channels; ++ch) {
    const double total = rate[static_cast<std::size_t>(ch)];
    if (total <= 0.0) continue;
    const int node = ct.at(ch).dst_node;
    const int base = onward_off[static_cast<std::size_t>(ch)];
    const int num_ports = onward_off[static_cast<std::size_t>(ch) + 1] - base;
    // Aggregate per-bundle flow for R(i|j) (route_prob targets the bundle,
    // not the specific link inside it).
    std::array<BundleFlow, 16> bundle_flow{};
    int bundles_used = 0;
    const auto bundle_total = [&](int bundle) -> double& {
      for (int i = 0; i < bundles_used; ++i) {
        if (bundle_flow[static_cast<std::size_t>(i)].bundle == bundle)
          return bundle_flow[static_cast<std::size_t>(i)].flow;
      }
      WORMNET_ENSURES(bundles_used < static_cast<int>(bundle_flow.size()));
      bundle_flow[static_cast<std::size_t>(bundles_used)].bundle = bundle;
      return bundle_flow[static_cast<std::size_t>(bundles_used++)].flow;
    };
    for (int port = 0; port < num_ports; ++port) {
      const double flow = onward[static_cast<std::size_t>(base + port)];
      if (flow <= 0.0) continue;
      const int next_ch = ct.from(node, port);
      bundle_total(bundle_of[static_cast<std::size_t>(next_ch)]) += flow;
    }
    for (int port = 0; port < num_ports; ++port) {
      const double flow = onward[static_cast<std::size_t>(base + port)];
      if (flow <= 0.0) continue;
      const int next_ch = ct.from(node, port);
      const double weight = flow / total;
      const double route_prob =
          bundle_total(bundle_of[static_cast<std::size_t>(next_ch)]) / total;
      net.graph.add_transition(ch, next_ch, weight, route_prob);
    }
  }

  int injecting = 0;
  for (int p = 0; p < procs; ++p) {
    if (spec.injection_weight(p, procs) <= 0.0) continue;
    const int inj = ct.from(p, 0);
    WORMNET_ENSURES(inj != topo::kNoChannel);
    net.injection_classes.push_back(inj);
    ++injecting;
  }
  WORMNET_EXPECTS(injecting > 0);
  net.mean_distance = st.weighted_distance / injecting;
  net.unroutable_fraction =
      st.total_weight > 0.0 ? st.unroutable_weight / st.total_weight : 0.0;
  net.model_name = "traffic(" + topo.name() + ", " + spec.name() + ")";
  net.opts = opts;

  const std::string problems = net.graph.validate();
  WORMNET_ENSURES(problems.empty());
  return net;
}

}  // namespace

GeneralModel build_traffic_model(const topo::Topology& topo,
                                 const traffic::TrafficSpec& spec,
                                 const SolveOptions& opts,
                                 const TrafficBuildOptions& build) {
  WORMNET_SPAN("build_traffic_model", "build");
  const int procs = topo.num_processors();
  WORMNET_EXPECTS(procs >= 2);
  WORMNET_EXPECTS(spec.check(procs).empty());

  const topo::ChannelTable ct(topo);
  CollapsePlan plan = plan_collapse(topo, ct, spec, build);
  if (plan.use_collapsed)
    return build_collapsed(topo, ct, spec, plan.sym, opts);

  DenseFlowState st;
  propagate_dense(topo, ct, spec, build,
                  plan.sparse_seed ? &plan.dest_sources : nullptr, st);
  return assemble_dense(topo, ct, spec, opts, st);
}

namespace {

/// Kill the floating residues a delta pass leaves where the true value is 0.
///
/// Delta contributions are bit-exact negatives of the original products
/// (multiplication by the signed seed distributes identically), so the only
/// error is re-associated ADDITION: subtracting a subset of a positive sum
/// in a different order leaves O(n·ulp·magnitude) residue — including tiny
/// NEGATIVE rates, which ChannelGraph::validate() rejects, and phantom
/// onward flows that would fabricate transitions into rate-0 channels.
/// Snap rate/onward values below a scale-aware epsilon to exactly 0; clamp
/// self-mass negatives only (tiny positive self is harmless and may be
/// legitimate — self magnitudes sit orders below rates).
///
/// The epsilon is CHANNEL-LOCAL: residues left by a delta pass scale with
/// the magnitudes that were summed at that channel (bounded by its own
/// rate), never with the network-wide maximum.  A single global
/// 1e-9·(1 + max_rate) epsilon — the previous rule — zeroes a legitimate
/// small flow whenever the rates span orders of magnitude (a skewed matrix
/// pattern, or the small flows a heterogeneous slow tier legitimately
/// carries next to a hot fast tier), silently dropping Kirchhoff mass.
/// Rates use the absolute 1e-9 floor (a channel whose history cancelled to
/// zero holds only its own residue); onward flows are bounded by their
/// channel's rate, so their epsilon is 1e-9·(1 + rate[ch]).  Legitimate
/// flows below 1e-9 messages/cycle at unit injection are physically
/// negligible by construction.
void snap_residues(DenseFlowState& st) {
  for (std::size_t ch = 0; ch < st.rate.size(); ++ch) {
    double& r = st.rate[ch];
    if (std::abs(r) < 1e-9) r = 0.0;
    WORMNET_ENSURES(r >= 0.0);  // beyond-residue negatives are a real bug
    const double eps = 1e-9 * (1.0 + r);
    double& s = st.self[ch];
    if (s < 0.0) {
      WORMNET_ENSURES(s > -eps);
      s = 0.0;
    }
    for (int k = st.onward_off[ch]; k < st.onward_off[ch + 1]; ++k) {
      double& v = st.onward[static_cast<std::size_t>(k)];
      if (std::abs(v) < eps) v = 0.0;
      WORMNET_ENSURES(v >= 0.0);
    }
  }
  // A channel whose rate vanished keeps no self-mass or continuation flows
  // (assembly would skip them behind the rate > 0 guard; keep the retained
  // state itself consistent so later deltas start clean).
  for (std::size_t ch = 0; ch < st.rate.size(); ++ch) {
    if (st.rate[ch] > 0.0) continue;
    st.self[ch] = 0.0;
    for (int k = st.onward_off[ch]; k < st.onward_off[ch + 1]; ++k) {
      st.onward[static_cast<std::size_t>(k)] = 0.0;
    }
  }
}

}  // namespace

/// Everything a resident model retains between retunes: the channel table,
/// the dense flow state (when dense), the current spec, and the recorded
/// lane/load/arrival tunes to re-apply after any reassembly.
struct RetunableTrafficModel::Impl {
  const topo::Topology* topo;
  topo::ChannelTable ct;
  traffic::TrafficSpec spec;
  SolveOptions opts;
  TrafficBuildOptions build;
  bool is_collapsed = false;
  DenseFlowState state;    ///< valid only when !is_collapsed
  int lanes_override = 0;  ///< 0: the topology's own lane counts
  int buffers_override = 0;  ///< 0: the topology's own buffer depths
  double bandwidth_scale = 1.0;  ///< on top of the topology's bandwidths
  double load_scale = 1.0;
  double tuned_ca2 = 1.0;
  double tuned_residual = 0.0;
  /// One-shot warn gate for the collapsed→dense fault fallback below: big
  /// N−1 sweeps trip the branch once per resident, not once per scenario.
  bool warned_collapsed_fault = false;
  /// Active fault view, shared (immutable after construction) so the default
  /// Impl copy stays cheap and clones of a faulted resident share the
  /// survivor BFS tables.  Null = healthy fabric.
  std::shared_ptr<const topo::FaultSet> fault_set;
  std::shared_ptr<const topo::FaultedTopology> faulted;
  GeneralModel net;

  Impl(const topo::Topology& t, traffic::TrafficSpec s, const SolveOptions& o,
       const TrafficBuildOptions& b)
      : topo(&t), ct(t), spec(std::move(s)), opts(o), build(b) {}

  /// The topology all routing-sensitive work runs against: the fault view
  /// when one is active, else the healthy base.  The channel STRUCTURE is
  /// identical either way (FaultedTopology's stability contract), so `ct`
  /// and every per-channel array stay valid across fault retunes.
  const topo::Topology& routing_topo() const {
    return faulted ? static_cast<const topo::Topology&>(*faulted) : *topo;
  }

  /// Re-apply the recorded lane/load/arrival tunes onto a freshly
  /// (re)assembled model.  Order matters only for documentation: each tune
  /// touches a disjoint ChannelClass field (lanes / rate_per_link / ca2).
  void apply_tunes() {
    if (lanes_override >= 1) net.set_uniform_lanes(lanes_override);
    if (buffers_override >= 1) net.set_uniform_buffers(buffers_override);
    if (bandwidth_scale != 1.0) scale_model_bandwidths(bandwidth_scale);
    if (load_scale != 1.0) net.scale_injection_rates(load_scale);
    if (tuned_ca2 != 1.0 || tuned_residual != 0.0) {
      net.set_injection_ca2(tuned_ca2);
      net.injection_batch_residual = tuned_residual;
    }
  }

  /// Multiply every resident class's bandwidth by `factor` — applied on top
  /// of whatever the (possibly tapered) topology assembled, so the taper
  /// shape survives reassembly.
  void scale_model_bandwidths(double factor) {
    std::vector<double> bw(static_cast<std::size_t>(net.graph.size()));
    for (int id = 0; id < net.graph.size(); ++id)
      bw[static_cast<std::size_t>(id)] = net.graph.at(id).bandwidth * factor;
    net.set_channel_bandwidths(bw);
  }

  /// Cold build for `new_spec` along the planned strategy, replacing the
  /// resident model and flow state.  Returns the destination (or
  /// destination-orbit) passes it ran.
  int rebuild_cold(const traffic::TrafficSpec& new_spec,
                   const CollapsePlan& plan) {
    WORMNET_SPAN("resident_rebuild_cold", "build");
    const topo::Topology& rt = routing_topo();
    if (plan.use_collapsed) {
      net = build_collapsed(rt, ct, new_spec, plan.sym, opts);
      is_collapsed = true;
      state = DenseFlowState{};
    } else {
      propagate_dense(rt, ct, new_spec, build,
                      plan.sparse_seed ? &plan.dest_sources : nullptr, state);
      net = assemble_dense(rt, ct, new_spec, opts, state);
      is_collapsed = false;
    }
    spec = new_spec;
    apply_tunes();
    return plan.use_collapsed ? plan.sym.num_proc_orbits : rt.num_processors();
  }
};

RetunableTrafficModel::RetunableTrafficModel(const topo::Topology& topo,
                                             traffic::TrafficSpec spec,
                                             const SolveOptions& opts,
                                             const TrafficBuildOptions& build)
    : impl_(std::make_unique<Impl>(topo, std::move(spec), opts, build)) {
  const int procs = topo.num_processors();
  WORMNET_EXPECTS(procs >= 2);
  WORMNET_EXPECTS(impl_->spec.check(procs).empty());
  impl_->rebuild_cold(impl_->spec,
                      plan_collapse(topo, impl_->ct, impl_->spec, build));
}

RetunableTrafficModel::~RetunableTrafficModel() = default;
RetunableTrafficModel::RetunableTrafficModel(const RetunableTrafficModel& other)
    : impl_(std::make_unique<Impl>(*other.impl_)) {}
RetunableTrafficModel& RetunableTrafficModel::operator=(
    const RetunableTrafficModel& other) {
  if (this != &other) impl_ = std::make_unique<Impl>(*other.impl_);
  return *this;
}
RetunableTrafficModel::RetunableTrafficModel(RetunableTrafficModel&&) noexcept =
    default;
RetunableTrafficModel& RetunableTrafficModel::operator=(
    RetunableTrafficModel&&) noexcept = default;

const GeneralModel& RetunableTrafficModel::model() const { return impl_->net; }
GeneralModel& RetunableTrafficModel::model() { return impl_->net; }
const traffic::TrafficSpec& RetunableTrafficModel::spec() const {
  return impl_->spec;
}
bool RetunableTrafficModel::collapsed() const { return impl_->is_collapsed; }

void RetunableTrafficModel::set_uniform_lanes(int lanes) {
  WORMNET_EXPECTS(lanes >= 1);
  impl_->lanes_override = lanes;
  impl_->net.set_uniform_lanes(lanes);
}

void RetunableTrafficModel::set_uniform_buffers(int flits) {
  impl_->net.set_uniform_buffers(flits);  // throws first on flits < 1
  impl_->buffers_override = flits;
}

void RetunableTrafficModel::scale_bandwidths(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("scale_bandwidths: factor must be > 0");
  impl_->scale_model_bandwidths(factor);
  impl_->bandwidth_scale *= factor;
}

void RetunableTrafficModel::scale_injection_rates(double factor) {
  impl_->load_scale *= factor;
  impl_->net.scale_injection_rates(factor);
}

void RetunableTrafficModel::set_injection_process(
    const arrivals::ArrivalSpec& process, double lambda0) {
  impl_->net.set_injection_process(process, lambda0);
  impl_->tuned_ca2 = impl_->net.injection_ca2;
  impl_->tuned_residual = impl_->net.injection_batch_residual;
}

void RetunableTrafficModel::set_injection_ca2(double ca2) {
  impl_->net.set_injection_ca2(ca2);
  impl_->tuned_ca2 = ca2;
  impl_->tuned_residual = 0.0;
}

RetuneReport RetunableTrafficModel::retune_traffic(
    const traffic::TrafficSpec& new_spec) {
  WORMNET_SPAN("retune_traffic", "retune");
  Impl& im = *impl_;
  const int procs = im.topo->num_processors();
  WORMNET_EXPECTS(new_spec.check(procs).empty());

  RetuneReport report;
  const topo::Topology& rt = im.routing_topo();
  const CollapsePlan plan = plan_collapse(rt, im.ct, new_spec, im.build);
  if (plan.use_collapsed) {
    // The PR 6 composition: the new spec still respects the symmetry, so
    // "retune" is one pass per destination orbit against O(classes) state —
    // not a dense rebuild, whatever mode the resident was in before.
    im.net = build_collapsed(rt, im.ct, new_spec, plan.sym, im.opts);
    im.is_collapsed = true;
    im.state = DenseFlowState{};
    im.spec = new_spec;
    im.apply_tunes();
    report.collapsed = true;
    report.passes = plan.sym.num_proc_orbits;
    return report;
  }
  if (im.is_collapsed) {
    // Collapsed → dense mode switch: no dense flow state to delta against.
    report.passes = im.rebuild_cold(new_spec, plan);
    report.rebuilt = true;
    return report;
  }

  // Dense delta: diff the two specs into signed per-destination seeds.  A
  // pair participates when its weight changed OR its source's injection
  // split changed (frac = w / injection_weight enters the QNA self-mass
  // even where the weight itself did not move).
  const traffic::TrafficSpec& old_spec = im.spec;
  std::vector<double> injw_old(static_cast<std::size_t>(procs), 0.0);
  std::vector<double> injw_new(static_cast<std::size_t>(procs), 0.0);
  for (int s = 0; s < procs; ++s) {
    injw_old[static_cast<std::size_t>(s)] = old_spec.injection_weight(s, procs);
    injw_new[static_cast<std::size_t>(s)] = new_spec.injection_weight(s, procs);
  }
  struct DeltaSeed {
    int src;
    double dflow;
    double dself;
  };
  std::vector<std::vector<DeltaSeed>> seeds(static_cast<std::size_t>(procs));
  long changed = 0;
  double d_total = 0.0;       // Σ (w_new − w_old) over all pairs
  double d_unroutable = 0.0;  // same, over pairs with no surviving path
  for (int d = 0; d < procs; ++d) {
    for (int s = 0; s < procs; ++s) {
      if (s == d) continue;
      const double w_old = old_spec.pair_weight(s, d, procs);
      const double w_new = new_spec.pair_weight(s, d, procs);
      d_total += w_new - w_old;
      // The cold build never seeded unreachable pairs (faulted fabrics), so
      // the delta must not either — only their demand accounting moves.
      if (!rt.reachable(s, d)) {
        d_unroutable += w_new - w_old;
        continue;
      }
      // Same product order as the cold seeds (frac first, then w·frac) so a
      // pure sign flip reproduces the original contribution bit for bit.
      double self_old = 0.0;
      if (w_old > 0.0) {
        const double frac = w_old / injw_old[static_cast<std::size_t>(s)];
        self_old = w_old * frac;
      }
      double self_new = 0.0;
      if (w_new > 0.0) {
        const double frac = w_new / injw_new[static_cast<std::size_t>(s)];
        self_new = w_new * frac;
      }
      const double dflow = w_new - w_old;
      const double dself = self_new - self_old;
      if (dflow == 0.0 && dself == 0.0) continue;
      seeds[static_cast<std::size_t>(d)].push_back({s, dflow, dself});
      ++changed;
    }
  }
  report.changed_pairs = changed;

  // A delta touching most of the matrix re-runs nearly every destination
  // pass with nearly every seed — at that point the sharded cold rebuild is
  // both faster and residue-free.
  if (changed > static_cast<long>(procs) * procs / 4) {
    report.passes = im.rebuild_cold(new_spec, plan);
    report.rebuilt = true;
    return report;
  }

  im.state.total_weight += d_total;
  im.state.unroutable_weight += d_unroutable;
  if (changed > 0) {
    DestinationPass pass(im.topo->num_nodes());
    DenseFlowState& st = im.state;
    for (int d = 0; d < procs; ++d) {
      const auto& dseeds = seeds[static_cast<std::size_t>(d)];
      if (dseeds.empty()) continue;
      for (const DeltaSeed& sd : dseeds) {
        if (sd.dflow != 0.0) {
          st.weighted_distance += sd.dflow * rt.distance(sd.src, d);
        }
        pass.in_flows[static_cast<std::size_t>(sd.src)].push_back(
            {topo::kNoChannel, sd.dflow, sd.dself});
        dfs_route_dag(rt, im.ct, sd.src, d, pass);
      }
      propagate_flows(
          d, pass,
          [&](int ch, double flow, double self) {
            st.rate[static_cast<std::size_t>(ch)] += flow;
            st.self[static_cast<std::size_t>(ch)] += self;
          },
          [&](int in_ch, int port, double flow) {
            st.onward[static_cast<std::size_t>(
                st.onward_off[static_cast<std::size_t>(in_ch)] + port)] += flow;
          });
      pass.reset();
      ++report.passes;
    }
    snap_residues(im.state);
  }

  // Cheap O(channels + transitions) tail: re-derive the model from the
  // updated flow state (also refreshes the spec-dependent name, injection
  // classes and mean distance).
  im.net = assemble_dense(rt, im.ct, new_spec, im.opts, im.state);
  im.is_collapsed = false;
  im.spec = new_spec;
  im.apply_tunes();
  return report;
}

RetuneReport RetunableTrafficModel::retune_faults(
    std::shared_ptr<const topo::FaultSet> faults) {
  WORMNET_SPAN("retune_faults", "retune");
  Impl& im = *impl_;
  if (faults && faults->empty()) faults.reset();  // empty set == healthy
  if (faults) WORMNET_EXPECTS(&faults->topology() == im.topo);

  RetuneReport report;
  const std::uint64_t old_digest = im.fault_set ? im.fault_set->digest() : 0;
  const std::uint64_t new_digest = faults ? faults->digest() : 0;
  if (old_digest == new_digest) return report;  // same degraded state: no-op

  // The model is a function of the routing alone, so the degraded model IS
  // the cold build on the new fault view, re-planned: a degraded view drops
  // the symmetry (dense), a return to healthy may collapse again.
  const bool was_collapsed = im.is_collapsed;
  const std::string old_name = im.net.model_name;
  const int old_classes = im.net.graph.size();
  im.fault_set = std::move(faults);
  im.faulted = im.fault_set ? std::make_shared<const topo::FaultedTopology>(
                                  *im.topo, *im.fault_set)
                            : nullptr;
  report.passes = im.rebuild_cold(
      im.spec, plan_collapse(im.routing_topo(), im.ct, im.spec, im.build));
  report.rebuilt = true;
  report.collapsed = im.is_collapsed;

  // A collapsed resident that came back dense pays dense costs, so it never
  // passes silently: a global-registry counter and a one-shot Warn naming
  // the broken symmetry.
  if (was_collapsed && !im.is_collapsed) {
    obs::Registry::global()
        .counter("wormnet_collapsed_fault_dense_rebuilds_total",
                 "reason=broken-symmetry")
        .inc();
    if (!im.warned_collapsed_fault) {
      im.warned_collapsed_fault = true;
      WORMNET_LOG_SUB(Core, Warn)
          << "collapsed resident '" << old_name
          << "' fell back to a dense rebuild on its first degraded query: "
          << "the fault breaks its declared symmetry (" << old_classes
          << " quotient classes -> " << im.net.graph.size()
          << " dense classes); an N-1 sweep pays one dense build per link "
          << "orbit, other fault sets one each";
    }
  }
  return report;
}

const topo::FaultSet* RetunableTrafficModel::faults() const {
  return impl_->fault_set.get();
}

const topo::Topology& RetunableTrafficModel::routing_topology() const {
  return impl_->routing_topo();
}

std::string check_collapsed_parity(const topo::Topology& topo,
                                   const traffic::TrafficSpec& spec,
                                   const GeneralModel& collapsed,
                                   const SolveOptions& opts) {
  WORMNET_EXPECTS(!collapsed.channel_class_of.empty());
  const GeneralModel dense = build_traffic_model(topo, spec, opts, {});
  if (static_cast<int>(collapsed.channel_class_of.size()) !=
      dense.graph.size()) {
    std::ostringstream out;
    out << "channel count mismatch: collapsed maps "
        << collapsed.channel_class_of.size() << " channels, topology has "
        << dense.graph.size();
    return out.str();
  }
  const auto disagree = [](double a, double b) {
    return std::abs(a - b) >
           1e-9 * std::max(std::abs(a), std::abs(b)) + 1e-12;
  };
  for (int ch = 0; ch < dense.graph.size(); ++ch) {
    const int c = collapsed.channel_class_of[static_cast<std::size_t>(ch)];
    if (c < 0 || c >= collapsed.graph.size()) {
      std::ostringstream out;
      out << "channel " << dense.graph.at(ch).label << " maps to class " << c
          << ", out of range";
      return out.str();
    }
    const ChannelClass& q = collapsed.graph.at(c);
    const ChannelClass& d = dense.graph.at(ch);
    if (disagree(q.rate_per_link, d.rate_per_link)) {
      std::ostringstream out;
      out << "class " << q.label << " rate " << q.rate_per_link
          << " disagrees with member channel " << d.label << " rate "
          << d.rate_per_link << " — the partition is not a routing symmetry";
      return out.str();
    }
    if (disagree(q.self_frac, d.self_frac)) {
      std::ostringstream out;
      out << "class " << q.label << " self_frac " << q.self_frac
          << " disagrees with member channel " << d.label << " self_frac "
          << d.self_frac << " — the partition is not a routing symmetry";
      return out.str();
    }
  }
  return "";
}

}  // namespace wormnet::core
