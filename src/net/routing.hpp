#pragma once
// Pluggable routing layer.
//
// The data plane only ever routes towards the base station, so every routing
// scheme reduces to a BS-rooted next-hop forest over the currently usable
// nodes. A RoutingPolicy is a strategy that builds that forest into a
// RouteTable; consumers (TrafficModel, stats, the World) only see the narrow
// RouteView contract — next-hop, path, reachability and hop distance — so
// swapping the scheme never touches them. Policies are selected by name
// through the string-keyed RoutingRegistry (core/registry.hpp, as schedulers):
// the paper's Dijkstra tree is the default `shortest_path` policy, and a new
// scheme is one file in src/net/routers/ plus one registration line.
//
// The table is rebuilt when the set of alive nodes changes (death /
// recharge-revival), which is rare compared with activation rotations.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "geom/vec2.hpp"
#include "net/graph.hpp"
#include "net/ids.hpp"

namespace wrsn {

// Read-only routing contract the traffic/statistics layers consume. All
// queries address graph node indices ([0, N) sensors, N the base station).
class RouteView {
 public:
  virtual ~RouteView() = default;

  [[nodiscard]] virtual bool built() const = 0;
  [[nodiscard]] virtual std::size_t num_nodes() const = 0;
  // True when the node can reach the base station through usable relays.
  [[nodiscard]] virtual bool reachable(std::size_t node) const = 0;
  // Next hop towards the base station (kInvalidId for the BS itself or
  // unreachable nodes).
  [[nodiscard]] virtual std::size_t next_hop(std::size_t node) const = 0;
  // Route length (metres) to the base station along this policy's forest;
  // infinity if unreachable. For `shortest_path` this is the Dijkstra
  // distance.
  [[nodiscard]] virtual double distance_to_base(std::size_t node) const = 0;
  // Length (metres) of the node -> next_hop(node) link; 0 when there is none.
  // The link-quality layer derives per-hop loss from this.
  [[nodiscard]] virtual double hop_length(std::size_t node) const = 0;
  // Hops from the node to its forest root along next_hop: the hop count to
  // the base station for a reachable node, 0 at a root. Two routes meet
  // where walking the deeper one up to the other's depth and then both in
  // step first lands on a common node (TrafficModel::swap_source).
  [[nodiscard]] virtual std::size_t hop_depth(std::size_t node) const = 0;

  // Hop count to the base station; nullopt if unreachable.
  [[nodiscard]] std::optional<std::size_t> hops_to_base(std::size_t node) const;
  // Full path node -> ... -> base station (inclusive); empty if unreachable.
  [[nodiscard]] std::vector<std::size_t> path_to_base(std::size_t node) const;
};

// The concrete next-hop forest every built-in policy fills: parent pointers,
// per-node route distance, per-node uplink length and hop depth.
class RouteTable final : public RouteView {
 public:
  RouteTable() = default;

  // Installs a built forest. `parent[n] == kInvalidId` marks the root (BS)
  // and unreachable nodes; `dist[n]` is the policy's route distance
  // (infinity when unreachable). Hop lengths are derived from `positions`
  // (node order matching the graph, BS last).
  void assign(std::vector<std::size_t> parent, std::vector<double> dist,
              const std::vector<Vec2>& positions);

  [[nodiscard]] bool built() const override { return !parent_.empty(); }
  [[nodiscard]] std::size_t num_nodes() const override { return parent_.size(); }
  [[nodiscard]] bool reachable(std::size_t node) const override;
  [[nodiscard]] std::size_t next_hop(std::size_t node) const override {
    return parent_[node];
  }
  [[nodiscard]] double distance_to_base(std::size_t node) const override {
    return dist_[node];
  }
  [[nodiscard]] double hop_length(std::size_t node) const override {
    return hop_len_[node];
  }
  [[nodiscard]] std::size_t hop_depth(std::size_t node) const override {
    return depth_[node];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<double> dist_;
  std::vector<double> hop_len_;
  std::vector<std::size_t> depth_;
};

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
