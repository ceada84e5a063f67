#include "net/stats.hpp"

#include <algorithm>
#include <queue>

#include "core/error.hpp"

namespace wrsn {

NetworkStats compute_stats(const Network& net) {
  NetworkStats stats;
  const CommGraph& g = net.graph();
  const std::size_t n = net.num_sensors();
  stats.num_sensors = n;
  stats.num_edges = g.num_edges();

  std::size_t degree_sum = 0;
  stats.min_degree = n > 0 ? g.degree(0) : 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t d = g.degree(s);
    degree_sum += d;
    stats.min_degree = std::min(stats.min_degree, d);
    stats.max_degree = std::max(stats.max_degree, d);
    if (d == 0) ++stats.isolated_sensors;
  }
  stats.avg_degree = n > 0 ? static_cast<double>(degree_sum) / static_cast<double>(n)
                           : 0.0;

  const RouteTable& tree = net.routing();
  WRSN_REQUIRE(tree.built(),
               "compute_stats needs a routing forest: call rebuild_routing() first");
  double hops_sum = 0.0;
  double length_sum = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!tree.reachable(s)) continue;
    ++stats.reachable_sensors;
    const auto hops = tree.hops_to_base(s);
    hops_sum += static_cast<double>(*hops);
    stats.max_hops_to_base = std::max(stats.max_hops_to_base, *hops);
    length_sum += tree.distance_to_base(s);
  }
  if (stats.reachable_sensors > 0) {
    stats.avg_hops_to_base =
        hops_sum / static_cast<double>(stats.reachable_sensors);
    stats.avg_route_length_m =
        length_sum / static_cast<double>(stats.reachable_sensors);
  }

  double coverage_sum = 0.0;
  for (const Target& t : net.targets()) {
    const std::size_t covering = net.count_covering(t.pos);
    coverage_sum += static_cast<double>(covering);
    if (covering == 0) ++stats.uncovered_targets;
  }
  stats.avg_coverage_degree =
      net.num_targets() > 0
          ? coverage_sum / static_cast<double>(net.num_targets())
          : 0.0;

  // Connected components over alive sensors plus the base station.
  const std::size_t num_nodes = g.num_nodes();
  std::vector<bool> usable(num_nodes, true);
  for (std::size_t s = 0; s < n; ++s) usable[s] = net.sensor(s).alive();
  std::vector<bool> visited(num_nodes, false);
  for (std::size_t start = 0; start < num_nodes; ++start) {
    if (visited[start] || !usable[start]) continue;
    ++stats.connected_components;
    std::queue<std::size_t> frontier;
    frontier.push(start);
    visited[start] = true;
    while (!frontier.empty()) {
      const std::size_t u = frontier.front();
      frontier.pop();
      for (const CommGraph::Edge& e : g.neighbors(u)) {
        if (!visited[e.to] && usable[e.to]) {
          visited[e.to] = true;
          frontier.push(e.to);
        }
      }
    }
  }
  return stats;
}

}  // namespace wrsn
