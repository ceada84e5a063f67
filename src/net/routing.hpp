#pragma once
// Pluggable routing layer.
//
// The data plane only ever routes towards the base station, so every routing
// scheme reduces to a BS-rooted next-hop forest over the currently usable
// nodes. A RoutingPolicy is a strategy that builds that forest into a
// RouteTable; consumers (TrafficModel, stats, the World) only read the
// table's next hops, reachability, route distances, hop lengths and hop
// depths, so swapping the scheme never touches them. Policies are selected
// by name through the string-keyed RoutingRegistry (core/registry.hpp, as
// schedulers): the paper's Dijkstra tree is the default `shortest_path`
// policy, and a new scheme is one file in src/net/routers/ plus one
// registration line.
//
// The forest follows the set of alive nodes (death / recharge-revival),
// which changes rarely compared with activation rotations. A policy may
// repair its forest in place for a set of flipped nodes (RoutingPolicy::
// repair); one that cannot is rebuilt.

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "geom/vec2.hpp"
#include "net/graph.hpp"
#include "net/ids.hpp"

namespace wrsn {

// The next-hop forest every built-in policy fills: parent pointers, per-node
// route distance, per-node uplink length and hop depth. All queries address
// graph node indices ([0, N) sensors, N the base station).
class RouteTable {
 public:
  RouteTable() = default;

  // Installs a built forest. `parent[n] == kInvalidId` marks the root (BS)
  // and unreachable nodes; `dist[n]` is the policy's route distance
  // (infinity when unreachable). Hop lengths are derived from `positions`
  // (node order matching the graph, BS last). Drops the child links.
  void assign(std::vector<std::size_t> parent, std::vector<double> dist,
              const std::vector<Vec2>& positions);

  [[nodiscard]] bool built() const { return !parent_.empty(); }
  [[nodiscard]] std::size_t num_nodes() const { return parent_.size(); }
  // True when the node can reach the base station through usable relays.
  [[nodiscard]] bool reachable(std::size_t node) const {
    return dist_[node] < kUnreachable;
  }
  // Next hop towards the base station (kInvalidId for the BS itself or
  // unreachable nodes).
  [[nodiscard]] std::size_t next_hop(std::size_t node) const { return parent_[node]; }
  // Route length (metres) to the base station along this policy's forest;
  // infinity if unreachable. For `shortest_path` this is the Dijkstra
  // distance.
  [[nodiscard]] double distance_to_base(std::size_t node) const { return dist_[node]; }
  // Length (metres) of the node -> next_hop(node) link; 0 when there is none.
  // The link-quality layer derives per-hop loss from this.
  [[nodiscard]] double hop_length(std::size_t node) const { return hop_len_[node]; }
  // Hops from the node to its forest root along next_hop: the hop count to
  // the base station for a reachable node, 0 at a root. Two routes meet
  // where walking the deeper one up to the other's depth and then both in
  // step first lands on a common node (TrafficModel::swap_source).
  [[nodiscard]] std::size_t hop_depth(std::size_t node) const { return depth_[node]; }

  // Hop count to the base station; nullopt if unreachable.
  [[nodiscard]] std::optional<std::size_t> hops_to_base(std::size_t node) const;
  // Full path node -> ... -> base station (inclusive); empty if unreachable.
  [[nodiscard]] std::vector<std::size_t> path_to_base(std::size_t node) const;

  // --- in-place edits (RoutingPolicy::repair) ------------------------------
  // A repair links the children, rewrites routes with set_route(), then
  // calls finish_repair() once with every node it rewrote. Between the two
  // the hop lengths and depths of the rewritten nodes' subtrees are stale.

  // Builds first-child / next-sibling / prev-sibling links over the current
  // parents, unless they are already there. O(n) once after assign(); the
  // edits below keep the links current, so later repairs skip it.
  void link_children();
  [[nodiscard]] bool children_linked() const { return !first_child_.empty(); }
  // Sets the node's next hop and route distance; moves it between the
  // parents' child lists when the next hop changes.
  void set_route(std::size_t node, std::size_t parent, double dist);
  // Calls f(v) for every node of the subtree rooted at `root`, pre-order
  // (each node after its parent). `f` must not edit the forest.
  template <typename F>
  void for_each_in_subtree(std::size_t root, F&& f) const;
  // Recomputes the hop length of every node in `rewritten` and the hop
  // depth of every node in their subtrees.
  void finish_repair(std::span<const std::size_t> rewritten,
                     const std::vector<Vec2>& positions);
  // Nodes the most recent repair rewrote (finish_repair's list); 0 after
  // assign().
  [[nodiscard]] std::size_t repaired_nodes() const { return repaired_nodes_; }

  // True when both tables hold the same forest: parents, depths and the
  // bits of every distance and hop length. The child links are ignored.
  [[nodiscard]] bool same_forest(const RouteTable& other) const;
  // True when the child links describe exactly the parent pointers (or are
  // not built). O(n); for tests and debug checks.
  [[nodiscard]] bool links_consistent() const;

  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

 private:
  static constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();

  // Child-list edits: push_child puts the node at the head of its
  // parent's list, unlink_child takes it out.
  void push_child(std::size_t node);
  void unlink_child(std::size_t node);

  std::vector<std::size_t> parent_;
  std::vector<double> dist_;
  std::vector<double> hop_len_;
  std::vector<std::size_t> depth_;
  // Child links, empty until the first repair after an assign().
  std::vector<std::uint32_t> first_child_;
  std::vector<std::uint32_t> next_sibling_;
  std::vector<std::uint32_t> prev_sibling_;
  // finish_repair's visited stamps (one generation per call).
  std::vector<std::uint32_t> visit_;
  std::uint32_t visit_gen_ = 0;
  std::vector<std::size_t> tops_;  // finish_repair scratch
  std::size_t repaired_nodes_ = 0;
};

template <typename F>
void RouteTable::for_each_in_subtree(std::size_t root, F&& f) const {
  std::size_t v = root;
  for (;;) {
    f(v);
    if (first_child_[v] != kNoLink) {
      v = first_child_[v];
      continue;
    }
    while (v != root && next_sibling_[v] == kNoLink) v = parent_[v];
    if (v == root) return;
    v = next_sibling_[v];
  }
}

// Everything a policy may consult while building routes. `usable` covers the
// sensors (the base station is always usable); `positions` lists every graph
// node's location, base station last.
struct RoutingBuildInput {
  const CommGraph* graph = nullptr;
  const std::vector<Vec2>* positions = nullptr;
  const std::vector<bool>* usable = nullptr;
};

// Strategy interface. Implementations must be deterministic pure functions
// of the build input (no RNG, no state across builds): the snapshot codec
// restores routing by re-running build() on the serialized alive mask, so
// any nondeterminism would break byte-identical resume.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual void build(const RoutingBuildInput& in, RouteTable& out) const = 0;
  // Brings `table`, this policy's forest over the previous mask, up to date
  // with `in`, whose usable mask differs from that one exactly at the nodes
  // in `flipped` (sensor indices, each once). The result must equal what
  // build(in) installs, bit for bit. Returns false when the policy cannot
  // repair (the default), leaving `table` unspecified: the caller then
  // calls build(). A policy may keep scratch buffers across repairs, so one
  // instance must not repair two tables at once.
  virtual bool repair(const RoutingBuildInput& in, std::span<const std::size_t> flipped,
                      RouteTable& table) const;
};

// Routing policies by name (core/registry.hpp); instance() registers the
// built-ins, the paper's default first.
using RoutingRegistry = Registry<RoutingPolicy>;
template <>
RoutingRegistry& RoutingRegistry::instance();

// Convenience: RoutingRegistry::instance().names().
[[nodiscard]] std::vector<std::string> routing_names();

// General single-source Dijkstra over a CommGraph (used by tests to
// cross-check the shortest_path policy and exposed for library users who
// need sensor-to-sensor paths). Returns distances and parents from
// `source`; nodes with usable[n]==false are skipped (source and target of
// an edge both need to be usable).
struct ShortestPaths {
  std::vector<double> dist;
  std::vector<std::size_t> parent;
};

[[nodiscard]] ShortestPaths dijkstra(const CommGraph& graph, std::size_t source,
                                     const std::vector<bool>& usable);

// Shared helpers for routers that build parents first and derive distances
// after the fact (greedy_geo, mst_backbone, cluster_backbone). Distances
// telescope root -> leaf (d(child) = d(parent) + hop length), matching how
// Dijkstra accumulates, and unreachable nodes get infinity.
[[nodiscard]] std::vector<double> tree_distances(
    const std::vector<std::size_t>& parent, const std::vector<Vec2>& positions,
    std::size_t root);

// The usable predicate every built-in router shares: the base station is
// always usable, and indices beyond the mask (the optional BS entry) are
// treated as usable.
[[nodiscard]] bool router_usable(const CommGraph& graph,
                                 const std::vector<bool>& usable,
                                 std::size_t node);

}  // namespace wrsn
