#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "net/routers/builtin.hpp"
#include "net/routing.hpp"

namespace wrsn {
namespace {

// The paper's routing model: Dijkstra from the base station over the usable
// nodes, every sensor forwarding along its shortest path. The Dijkstra
// distances are installed directly as the route distances (no re-derivation)
// so results stay bit-identical with the pre-registry RoutingTree.
//
// A death or a revival is repaired in place (Ramalingam & Reps' dynamic
// shortest-path update). The full run relaxes with a strict `<` and settles
// nodes in (distance, id) order, so each node's distance is
// min over usable neighbours u of fl(d(u) + len), and its parent is the
// first u in settle order that reaches that minimum. The repair
//  - resets the affected nodes (the old subtree of each dead node and each
//    revived node) to unreachable,
//  - seeds a heap with every usable, reachable, unaffected neighbour of an
//    affected usable node, keyed (d(u), u),
//  - relaxes as the full run does; on an exact tie it moves y from its
//    parent p to x when (d(x), x) < (d(p), p), the full run's settle order,
//    which also lets a revival lower distances outside the affected set,
//  - and gives up (full build) where a hop that adds nothing to a distance
//    (fl(d + len) == d: co-located nodes) can put the full run's settle
//    order out of (distance, id) order: such a hop out of a popped node, a
//    tie that would move a node whose old hop added nothing, or a tie
//    decided against a parent whose own hop added nothing.
class ShortestPathRouter final : public RoutingPolicy {
 public:
  void build(const RoutingBuildInput& in, RouteTable& out) const override {
    WRSN_REQUIRE(in.graph && in.positions && in.usable,
                 "routing build input is incomplete");
    ShortestPaths sp =
        dijkstra(*in.graph, in.graph->base_station_index(), *in.usable);
    out.assign(std::move(sp.parent), std::move(sp.dist), *in.positions);
  }

  bool repair(const RoutingBuildInput& in, std::span<const std::size_t> flipped,
              RouteTable& table) const override {
    WRSN_REQUIRE(in.graph && in.positions && in.usable,
                 "routing build input is incomplete");
    const CommGraph& graph = *in.graph;
    const std::size_t n = graph.num_nodes();
    if (table.num_nodes() != n) return false;
    table.link_children();
    if (flags_.size() != n) flags_.assign(n, 0);
    const bool ok = relax(in, flipped, table);
    for (const std::size_t v : rewritten_) flags_[v] = 0;
    for (const std::size_t v : seeds_) flags_[v] = 0;
    if (ok) table.finish_repair(rewritten_, *in.positions);
    return ok;
  }

 private:
  enum Flag : std::uint8_t { kRewritten = 1, kSeeded = 2 };
  using Item = std::pair<double, std::size_t>;  // (dist, node), as dijkstra

  // Reset, seed and relax; false when a hop adds nothing. Leaves the flags
  // set on rewritten_ and seeds_ for the caller to clear.
  bool relax(const RoutingBuildInput& in, std::span<const std::size_t> flipped,
             RouteTable& table) const {
    const CommGraph& graph = *in.graph;
    const auto usable = [&](std::size_t v) { return router_usable(graph, *in.usable, v); };
    const auto rewrite = [&](std::size_t v) {
      if ((flags_[v] & kRewritten) != 0) return;
      flags_[v] |= kRewritten;
      rewritten_.push_back(v);
    };
    rewritten_.clear();
    seeds_.clear();
    heap_.clear();

    // Reset: the old subtree of each dead node, and each revived node (a
    // dead node is unreachable, so a revived one starts with no subtree).
    for (const std::size_t f : flipped) {
      WRSN_REQUIRE(f < graph.base_station_index(), "flipped node is not a sensor");
      if (usable(f)) {
        if (table.reachable(f)) return false;  // not the forest of the old mask
        rewrite(f);
        continue;
      }
      table.for_each_in_subtree(f, rewrite);
    }
    for (const std::size_t v : rewritten_) {
      table.set_route(v, kInvalidId, RouteTable::kUnreachable);
    }

    // Seed from the usable boundary of every affected usable node (so far
    // the rewritten nodes are exactly the affected ones).
    for (const std::size_t a : rewritten_) {
      if (!usable(a)) continue;
      for (const CommGraph::Edge& e : graph.neighbors(a)) {
        const std::size_t u = e.to;
        if (flags_[u] != 0 || !usable(u) || !table.reachable(u)) continue;
        flags_[u] |= kSeeded;
        seeds_.push_back(u);
        heap_.emplace_back(table.distance_to_base(u), u);
      }
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});

    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, x] = heap_.back();
      heap_.pop_back();
      if (d > table.distance_to_base(x)) continue;  // stale entry
      for (const CommGraph::Edge& e : graph.neighbors(x)) {
        const std::size_t y = e.to;
        if (!usable(y)) continue;
        const double sum = d + e.length;
        if (sum == d) return false;  // a hop that adds nothing
        const double dy = table.distance_to_base(y);
        if (sum < dy) {
          table.set_route(y, x, sum);
          rewrite(y);
          heap_.emplace_back(sum, y);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
          continue;
        }
        if (sum != dy) continue;
        // An exact tie: the node settled first in the full run keeps y.
        const std::size_t p = table.next_hop(y);
        if (p == kInvalidId || p == x) continue;
        const double dp = table.distance_to_base(p);
        if (dp == d) {
          // p and x settle in id order only if p's own hop added something
          // (x's hops are all checked by this scan); otherwise the full run
          // may settle p after x.
          const std::size_t pp = table.next_hop(p);
          if (pp != kInvalidId && table.distance_to_base(pp) == dp) return false;
        }
        if (dp < d || (dp == d && p < x)) continue;
        // y settled after p in the old forest if its hop from p added
        // nothing, and settles in (distance, id) order from x: a move that
        // changes y's place in the order, which its own neighbours' ties
        // would have to follow.
        if (dp == dy) return false;
        table.set_route(y, x, sum);
        rewrite(y);
      }
    }
    return true;
  }

  // Repair scratch, reused across repairs (never state: every repair
  // leaves the flags clear).
  mutable std::vector<std::uint8_t> flags_;
  mutable std::vector<std::size_t> rewritten_;
  mutable std::vector<std::size_t> seeds_;
  mutable std::vector<Item> heap_;
};

}  // namespace

void register_shortest_path_router(RoutingRegistry& registry) {
  registry.add(
      "shortest_path",
      "Dijkstra tree rooted at the base station (paper default)",
      []() -> std::unique_ptr<RoutingPolicy> {
        return std::make_unique<ShortestPathRouter>();
      });
}

}  // namespace wrsn
