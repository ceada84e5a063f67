// Pre-deployment analysis: before committing sensors to the field, check
// density against Eq. (1), connectivity to the base station, hop depth and
// coverage degree across candidate deployment sizes.
//
//   ./network_analysis [field_side_m]
#include <cstdlib>
#include <iostream>

#include "core/config.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "geom/coverage.hpp"
#include "net/network.hpp"
#include "net/stats.hpp"

int main(int argc, char** argv) {
  using namespace wrsn;

  const double side = argc > 1 ? std::atof(argv[1]) : 200.0;
  SimConfig base = SimConfig::paper_defaults();
  base.field_side = meters(side);

  const std::size_t n_min =
      min_sensors_for_coverage(side * side, base.sensing_range.value());
  std::cout << "Deployment analysis for a " << side << " m x " << side
            << " m field (d_s = " << base.sensing_range.value()
            << " m, d_c = " << base.comm_range.value() << " m)\n"
            << "Eq. (1) lattice minimum for full coverage: " << n_min
            << " sensors\n\n";

  Table t({"sensors", "avg degree", "isolated", "BS-reachable (%)",
           "avg hops", "avg route (m)", "coverage degree", "components"});
  t.set_precision(2);

  for (double factor : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0}) {
    const auto n = static_cast<std::size_t>(static_cast<double>(n_min) * factor);
    SimConfig cfg = base;
    cfg.num_sensors = n;
    RngStreams streams(42);
    Xoshiro256 deploy = streams.stream("deployment");
    Xoshiro256 targets = streams.stream("target-placement");
    Network net(cfg, deploy, targets);
    net.rebuild_routing();
    const NetworkStats s = compute_stats(net);
    t.add_row({static_cast<long long>(n), s.avg_degree,
               static_cast<long long>(s.isolated_sensors),
               100.0 * static_cast<double>(s.reachable_sensors) /
                   static_cast<double>(n),
               s.avg_hops_to_base, s.avg_route_length_m, s.avg_coverage_degree,
               static_cast<long long>(s.connected_components)});
  }
  t.print(std::cout);

  std::cout << "\nreading the table: pick the smallest deployment with ~100%\n"
               "BS-reachability and a coverage degree comfortably above 1 —\n"
               "the redundancy that round-robin activation then converts into\n"
               "lifetime (Table II uses "
            << SimConfig{}.num_sensors << " sensors, ~3x the Eq. (1) bound).\n";
  return 0;
}
