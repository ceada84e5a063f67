#pragma once
// Structural statistics of a deployed network: degree distribution,
// BS-connectivity, hop counts, coverage degree — the quantities one checks
// before trusting a deployment (used by examples and the deployment bench).

#include <cstddef>
#include <vector>

#include "net/network.hpp"

namespace wrsn {

struct NetworkStats {
  std::size_t num_sensors = 0;
  std::size_t num_edges = 0;  // sensor-sensor plus sensor-BS links
  double avg_degree = 0.0;
  std::size_t min_degree = 0;
  std::size_t max_degree = 0;
  std::size_t isolated_sensors = 0;     // degree zero
  std::size_t reachable_sensors = 0;    // can route to the base station
  double avg_hops_to_base = 0.0;        // over reachable sensors
  std::size_t max_hops_to_base = 0;
  double avg_route_length_m = 0.0;      // over reachable sensors
  double avg_coverage_degree = 0.0;     // sensors covering a random target
  std::size_t uncovered_targets = 0;    // current targets with no sensor in range
  std::size_t connected_components = 0; // over alive sensors + BS
};

// Requires a built routing forest (Network::rebuild_routing()).
[[nodiscard]] NetworkStats compute_stats(const Network& net);

}  // namespace wrsn
