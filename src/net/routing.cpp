#include "net/routing.hpp"

#include <limits>
#include <queue>

#include "core/error.hpp"
#include "net/routers/builtin.hpp"

namespace wrsn {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

ShortestPaths run_dijkstra(const CommGraph& graph, std::size_t source,
                           const std::vector<bool>& usable_in) {
  const std::size_t n = graph.num_nodes();
  WRSN_REQUIRE(source < n, "dijkstra source out of range");
  WRSN_REQUIRE(usable_in.size() == n || usable_in.size() + 1 == n,
               "usable mask size must cover the sensors (+optional BS entry)");

  auto usable = [&](std::size_t node) {
    if (node == graph.base_station_index()) return true;
    return node < usable_in.size() ? static_cast<bool>(usable_in[node]) : true;
  };

  ShortestPaths out;
  out.dist.assign(n, kInf);
  out.parent.assign(n, kInvalidId);
  if (!usable(source)) return out;

  using Item = std::pair<double, std::size_t>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  out.dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > out.dist[u]) continue;  // stale entry
    for (const CommGraph::Edge& e : graph.neighbors(u)) {
      if (!usable(e.to)) continue;
      const double nd = d + e.length;
      if (nd < out.dist[e.to]) {
        out.dist[e.to] = nd;
        out.parent[e.to] = u;
        heap.emplace(nd, e.to);
      }
    }
  }
  return out;
}

}  // namespace

ShortestPaths dijkstra(const CommGraph& graph, std::size_t source,
                       const std::vector<bool>& usable) {
  return run_dijkstra(graph, source, usable);
}

bool router_usable(const CommGraph& graph, const std::vector<bool>& usable,
                   std::size_t node) {
  if (node == graph.base_station_index()) return true;
  return node < usable.size() ? static_cast<bool>(usable[node]) : true;
}

std::vector<double> tree_distances(const std::vector<std::size_t>& parent,
                                   const std::vector<Vec2>& positions,
                                   std::size_t root) {
  const std::size_t n = parent.size();
  WRSN_REQUIRE(positions.size() == n,
               "tree_distances needs one position per node");
  std::vector<double> dist(n, kInf);
  dist[root] = 0.0;
  // Resolve each node by chasing parents to a node with a known distance,
  // then unwind so d(child) = d(parent) + hop accumulates root -> leaf —
  // the same association order Dijkstra's relaxations produce.
  std::vector<std::size_t> chain;
  for (std::size_t start = 0; start < n; ++start) {
    if (dist[start] < kInf || parent[start] == kInvalidId) continue;
    chain.clear();
    std::size_t cur = start;
    while (parent[cur] != kInvalidId && dist[cur] == kInf) {
      chain.push_back(cur);
      cur = parent[cur];
      WRSN_ASSERT(chain.size() <= n, "routing forest contains a cycle");
    }
    if (dist[cur] == kInf) continue;  // chain ends at an unreachable node
    for (std::size_t i = chain.size(); i-- > 0;) {
      const std::size_t node = chain[i];
      dist[node] =
          dist[parent[node]] + distance(positions[node], positions[parent[node]]);
    }
  }
  return dist;
}

std::optional<std::size_t> RouteView::hops_to_base(std::size_t node) const {
  if (!reachable(node)) return std::nullopt;
  return hop_depth(node);
}

std::vector<std::size_t> RouteView::path_to_base(std::size_t node) const {
  std::vector<std::size_t> path;
  if (!reachable(node)) return path;
  for (std::size_t cur = node;; cur = next_hop(cur)) {
    path.push_back(cur);
    if (next_hop(cur) == kInvalidId) break;
    WRSN_ASSERT(path.size() <= num_nodes(), "routing forest contains a cycle");
  }
  return path;
}

void RouteTable::assign(std::vector<std::size_t> parent,
                        std::vector<double> dist,
                        const std::vector<Vec2>& positions) {
  WRSN_REQUIRE(parent.size() == dist.size(),
               "route table parent/dist size mismatch");
  WRSN_REQUIRE(positions.size() == parent.size(),
               "route table needs one position per node");
  parent_ = std::move(parent);
  dist_ = std::move(dist);
  const std::size_t n = parent_.size();
  hop_len_.assign(n, 0.0);
  for (std::size_t node = 0; node < n; ++node) {
    if (parent_[node] != kInvalidId) {
      hop_len_[node] = distance(positions[node], positions[parent_[node]]);
    }
  }
  // Depths: count the hops from each unresolved node up to a root or a
  // resolved node, then walk the same chain again writing them, so each
  // node is resolved once.
  constexpr std::size_t kUnresolved = std::numeric_limits<std::size_t>::max();
  depth_.assign(n, kUnresolved);
  for (std::size_t start = 0; start < n; ++start) {
    std::size_t hops = 0;
    std::size_t cur = start;
    for (; depth_[cur] == kUnresolved && parent_[cur] != kInvalidId; ++hops) {
      cur = parent_[cur];
      WRSN_ASSERT(hops < n, "routing forest contains a cycle");
    }
    if (depth_[cur] == kUnresolved) depth_[cur] = 0;  // a root
    const std::size_t top = depth_[cur];
    for (cur = start; hops > 0; --hops, cur = parent_[cur]) depth_[cur] = top + hops;
  }
}

bool RouteTable::reachable(std::size_t node) const {
  WRSN_ASSERT(node < dist_.size(), "routing query out of range");
  return dist_[node] < kInf;
}

template <>
RoutingRegistry& RoutingRegistry::instance() {
  static RoutingRegistry* registry = [] {
    auto* r = new RoutingRegistry("routing policy");
    // The paper's Dijkstra tree first (the default), then the alternative
    // topologies — the order names() reports and the docs table uses.
    register_shortest_path_router(*r);
    register_greedy_geo_router(*r);
    register_mst_backbone_router(*r);
    register_cluster_backbone_router(*r);
    return r;
  }();
  return *registry;
}

std::vector<std::string> routing_names() {
  return RoutingRegistry::instance().names();
}

}  // namespace wrsn
