// Eq. (1) reproduction: minimum sensor count for full coverage as a function
// of sensing range, cross-checked against a Monte-Carlo estimate of actual
// coverage at that density.
#include <iostream>

#include "core/rng.hpp"
#include "core/table.hpp"
#include "geom/coverage.hpp"
#include "geom/grid.hpp"
#include "net/deployment.hpp"

int main() {
  using namespace wrsn;
  std::cout << "Eq. (1) - minimum sensors for full coverage "
               "(paper reference: Section II-B, Eq. (1))\n";

  const double side = 200.0;
  Table t({"sensing range r (m)", "N_min (Eq. 1)", "expected degree at N_min",
           "MC covered fraction at N_min"});
  t.set_precision(3);

  Xoshiro256 rng(12345);
  for (double r : {4.0, 6.0, 8.0, 10.0, 12.0, 16.0}) {
    const std::size_t n_min = min_sensors_for_coverage(side * side, r);
    const double degree = expected_coverage_degree(n_min, side, r);

    // Monte-Carlo: deploy n_min sensors uniformly, sample random points,
    // count the fraction covered (random deployment needs more than the
    // deterministic-lattice minimum, so this is < 1 by design).
    const auto sensors = deploy_uniform(n_min, side, rng);
    SpatialGrid grid(side, r);
    grid.build(sensors);
    int covered = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
      const Vec2 q{rng.uniform(0.0, side), rng.uniform(0.0, side)};
      bool hit = false;
      grid.for_each_in_radius(q, r, [&](std::size_t) { hit = true; });
      if (hit) ++covered;
    }
    t.add_row({r, static_cast<long long>(n_min), degree,
               static_cast<double>(covered) / trials});
  }
  t.print(std::cout);
  std::cout << "\nNote: Eq. (1) is the deterministic triangular-lattice bound; a\n"
               "random deployment at the same density leaves holes, which is why\n"
               "Table II deploys 500 >> N_min(8 m) sensors.\n";
  return 0;
}
