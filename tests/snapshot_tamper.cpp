// snapshot_tamper IN OUT — writes OUT: the world restored from snapshot IN
// with one event of kind 13 (one past the last EventKind) planted in its
// queue, checkpointed again, so OUT carries a valid checksum over a hostile
// body. The robustness ctests restore OUT through wrsn_sim and expect a
// one-line rejection.
#include <exception>
#include <iostream>

#include "sim/snapshot.hpp"
#include "sim/world.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: snapshot_tamper IN OUT\n";
    return 2;
  }
  try {
    wrsn::World world(wrsn::load_snapshot_file(argv[1]));
    world.push_event_for_test(world.now().value() + 1.0,
                              static_cast<wrsn::EventKind>(wrsn::kNumEventKinds),
                              0, 0);
    wrsn::save_snapshot_file(argv[2], world.checkpoint());
  } catch (const std::exception& e) {
    std::cerr << "snapshot_tamper: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
