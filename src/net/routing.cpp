#include "net/routing.hpp"

#include <algorithm>
#include <bit>
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

std::optional<std::size_t> RouteTable::hops_to_base(std::size_t node) const {
  if (!reachable(node)) return std::nullopt;
  return hop_depth(node);
}

std::vector<std::size_t> RouteTable::path_to_base(std::size_t node) const {
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
  first_child_.clear();
  next_sibling_.clear();
  prev_sibling_.clear();
  repaired_nodes_ = 0;
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

void RouteTable::link_children() {
  if (children_linked()) return;
  const std::size_t n = parent_.size();
  WRSN_REQUIRE(n < kNoLink, "child links hold at most 2^32 - 1 nodes");
  first_child_.assign(n, kNoLink);
  next_sibling_.assign(n, kNoLink);
  prev_sibling_.assign(n, kNoLink);
  visit_.assign(n, 0);
  visit_gen_ = 0;
  // Descending, so each child list comes out in ascending id.
  for (std::size_t node = n; node-- > 0;) {
    if (parent_[node] != kInvalidId) push_child(node);
  }
}

void RouteTable::push_child(std::size_t node) {
  const std::uint32_t head = first_child_[parent_[node]];
  next_sibling_[node] = head;
  prev_sibling_[node] = kNoLink;
  if (head != kNoLink) prev_sibling_[head] = static_cast<std::uint32_t>(node);
  first_child_[parent_[node]] = static_cast<std::uint32_t>(node);
}

void RouteTable::unlink_child(std::size_t node) {
  const std::uint32_t prev = prev_sibling_[node];
  const std::uint32_t next = next_sibling_[node];
  if (prev != kNoLink) {
    next_sibling_[prev] = next;
  } else {
    first_child_[parent_[node]] = next;
  }
  if (next != kNoLink) prev_sibling_[next] = prev;
}

void RouteTable::set_route(std::size_t node, std::size_t parent, double dist) {
  WRSN_ASSERT(children_linked(), "set_route needs the child links");
  dist_[node] = dist;
  if (parent_[node] == parent) return;
  if (parent_[node] != kInvalidId) unlink_child(node);
  parent_[node] = parent;
  if (parent != kInvalidId) push_child(node);
}

void RouteTable::finish_repair(std::span<const std::size_t> rewritten,
                               const std::vector<Vec2>& positions) {
  WRSN_ASSERT(children_linked(), "finish_repair needs the child links");
  repaired_nodes_ = rewritten.size();
  tops_.clear();
  for (const std::size_t v : rewritten) {
    const std::size_t p = parent_[v];
    if (p == kInvalidId) {
      hop_len_[v] = 0.0;
      depth_[v] = 0;
    } else {
      hop_len_[v] = distance(positions[v], positions[p]);
      tops_.push_back(v);
    }
  }
  // A node is strictly farther from the base station than its parent (a
  // repair gives up on a hop that adds nothing), so in (distance, id) order
  // every rewritten node comes after the rewritten nodes above it: one
  // subtree walk from each node not yet visited sets every depth from a
  // current parent depth.
  std::sort(tops_.begin(), tops_.end(), [&](std::size_t a, std::size_t b) {
    return dist_[a] != dist_[b] ? dist_[a] < dist_[b] : a < b;
  });
  if (++visit_gen_ == 0) {
    std::fill(visit_.begin(), visit_.end(), 0);
    visit_gen_ = 1;
  }
  for (const std::size_t top : tops_) {
    if (visit_[top] == visit_gen_) continue;
    for_each_in_subtree(top, [&](std::size_t v) {
      depth_[v] = depth_[parent_[v]] + 1;
      visit_[v] = visit_gen_;
    });
  }
}

bool RouteTable::same_forest(const RouteTable& other) const {
  const auto same_bits = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
             return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
           });
  };
  return parent_ == other.parent_ && depth_ == other.depth_ &&
         same_bits(dist_, other.dist_) && same_bits(hop_len_, other.hop_len_);
}

bool RouteTable::links_consistent() const {
  if (!children_linked()) return true;
  const std::size_t n = parent_.size();
  std::size_t linked = 0;
  for (std::size_t p = 0; p < n; ++p) {
    std::uint32_t prev = kNoLink;
    for (std::uint32_t c = first_child_[p]; c != kNoLink; c = next_sibling_[c]) {
      if (parent_[c] != p || prev_sibling_[c] != prev || ++linked > n) return false;
      prev = c;
    }
  }
  return linked == static_cast<std::size_t>(
                       std::count_if(parent_.begin(), parent_.end(),
                                     [](std::size_t p) { return p != kInvalidId; }));
}

bool RoutingPolicy::repair(const RoutingBuildInput& /*in*/,
                           std::span<const std::size_t> /*flipped*/,
                           RouteTable& /*table*/) const {
  return false;
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
