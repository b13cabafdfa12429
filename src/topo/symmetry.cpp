#include "topo/symmetry.hpp"

#include <unordered_map>

namespace wormnet::topo {

bool topology_symmetry(const Topology& topo, const ChannelTable& ct,
                       const std::vector<int>& pinned_procs,
                       SymmetryClasses& out) {
  out = SymmetryClasses{};
  if (!topo.has_symmetry(pinned_procs)) return false;
  for (int p : pinned_procs) {
    WORMNET_EXPECTS(p >= 0 && p < topo.num_processors());
  }

  const int procs = topo.num_processors();
  out.proc_orbit.assign(static_cast<std::size_t>(procs), -1);
  std::unordered_map<std::uint64_t, int> proc_ids;
  proc_ids.reserve(64);
  for (int p = 0; p < procs; ++p) {
    const std::uint64_t key = topo.proc_symmetry_key(p, pinned_procs);
    const auto [it, inserted] = proc_ids.emplace(key, out.num_proc_orbits);
    if (inserted) ++out.num_proc_orbits;
    out.proc_orbit[static_cast<std::size_t>(p)] = it->second;
  }

  out.channel_class.assign(static_cast<std::size_t>(ct.size()), -1);
  std::unordered_map<std::uint64_t, int> channel_ids;
  channel_ids.reserve(256);
  std::vector<int> class_rep;  // first channel seen per class
  for (int ch = 0; ch < ct.size(); ++ch) {
    const DirectedChannel& dc = ct.at(ch);
    const std::uint64_t key =
        topo.channel_symmetry_key(dc.src_node, dc.src_port, pinned_procs);
    const auto [it, inserted] = channel_ids.emplace(key, out.num_channel_classes);
    if (inserted) {
      ++out.num_channel_classes;
      class_rep.push_back(ch);
    }
    out.channel_class[static_cast<std::size_t>(ch)] = it->second;
  }

  // Lane counts and heterogeneous link attributes must be CONSTANT on every
  // declared class: the representative-destination propagation treats a
  // class's channels as exchangeable.  Refining the keys instead would be
  // unsafe (a finer-than-orbit partition breaks the contract above), so when
  // the attributes cut across declared orbits — e.g. a taper the topology's
  // keys don't know about — we refuse, and the builder falls back to the
  // exact dense path.
  // A tapered ButterflyFatTree stays collapsible: its (direction, level)
  // keys already separate tiers.
  for (int ch = 0; ch < ct.size(); ++ch) {
    const int rep =
        class_rep[static_cast<std::size_t>(out.channel_class[static_cast<std::size_t>(ch)])];
    if (ct.lanes(ch) != ct.lanes(rep) ||
        ct.bandwidth(ch) != ct.bandwidth(rep) ||
        ct.link_latency(ch) != ct.link_latency(rep) ||
        ct.buffer_depth(ch) != ct.buffer_depth(rep)) {
      out = SymmetryClasses{};
      return false;
    }
  }
  return true;
}

}  // namespace wormnet::topo
