#pragma once
// Flow-rate traffic accounting.
//
// Active monitors generate lambda pkt/min towards the base station over the
// routing forest. Rather than simulating packets, we keep per-node transmit /
// receive packet *rates* (pkt/s); combined with the per-packet radio
// energies this yields each node's radio power draw, which is exactly what
// the analytic battery model needs.
//
// Contract: every source emits the model's one packet rate, fixed at
// construction, and every flow follows the routing forest the caller
// passes. The caller passes the forest the flows were laid on to every
// call, and when the forest changes it calls retract_all() on the forest
// before the change and readd_all() on the forest after it. Nothing about
// a path is stored: a flow's route is re-read from the forest whenever it
// is needed.
//
// Lossless flows (link layer off, the default) keep an integer flow count
// per node: tx counts the flows a node transmits (its own and relayed),
// rx the flows it relays. Its rates are the counts times the packet rate,
// exact whatever the rate. A monitor hand-off, swap_source(), therefore
// walks only the two route branches below the node where the old and the
// new source's routes meet (found with the forest's hop depth), and leaves
// the shared trunk alone.
//
// Lossy flows (LinkConfig enabled): each hop carries its expected
// transmission count (ETX) and success probability, derived from the hop
// length: transmit rates are multiplied by ETX (retransmissions cost energy)
// and the offered rate attenuates hop by hop, so only the surviving
// fraction reaches the base station. The rates are floating-point sums along
// full paths, and since the forest is the one the flow was added on, a
// removal recomputes the same per-hop factors and subtracts exactly what
// the add applied.
//
// The aggregates (offered, delivered, rate-weighted hops) are running sums
// with exact snap-backs at quiescence in both modes, applied per flow in the
// order a remove followed by an add would apply them.
//
// Ordering invariant: retract_all(), readd_all() and serialize() visit the
// registered
// sources in ascending SensorId. Lossy rates and the aggregates accumulate
// floating-point sums, so that order is part of the numerics a restored run
// reproduces.

#include <cstdint>
#include <vector>

#include "core/binio.hpp"
#include "core/config.hpp"
#include "core/dirty_set.hpp"
#include "core/units.hpp"
#include "net/ids.hpp"
#include "net/routing.hpp"

namespace wrsn {

class TrafficModel {
 public:
  TrafficModel() = default;
  TrafficModel(std::size_t num_sensors, double rate_pps) {
    reset(num_sensors, rate_pps);
  }

  // Drops every source; each one added later emits `rate_pps` packets/s.
  void reset(std::size_t num_sensors, double rate_pps);

  // Installs the link-quality model; call it while no source is registered.
  // `comm_range` (metres) is the distance at which the loss_at_range term
  // applies in full.
  void set_link_model(const LinkConfig& link, double comm_range);

  [[nodiscard]] std::size_t num_sensors() const { return tx_rate_.size(); }
  [[nodiscard]] std::size_t num_sources() const { return num_sources_; }
  [[nodiscard]] double rate_pps() const { return rate_pps_; }
  [[nodiscard]] bool has_source(SensorId s) const {
    return s < num_sensors() && ((present_[s >> 6] >> (s & 63)) & 1) != 0;
  }

  // Registers `source` along its route in `routes`. A source whose route is
  // unreachable still spends transmit energy on its own packets (it keeps
  // trying) but relays nothing. A source may be added only once.
  void add_source(const RouteTable& routes, SensorId source);
  // Retracts `source`'s flow; `routes` is the forest it was added on.
  void remove_source(const RouteTable& routes, SensorId source);
  // Moves a flow from `old_source` (registered) to `new_source` (not
  // registered): the same rates and aggregates as remove_source(old) then
  // add_source(new). Lossless flows walk only the two branches below the
  // node where the routes meet; lossy ones walk both full paths. Returns the
  // number of nodes walked.
  std::size_t swap_source(const RouteTable& routes, SensorId old_source,
                          SensorId new_source);

  // Re-lays every flow across a forest change, in two passes in ascending
  // id: retract_all() takes each flow off `routes`, the forest the flows
  // follow, before the change; readd_all() lays each on `routes`, the
  // changed forest. Between the two the sources stay registered but carry
  // no flow. Every flow moves, not only those whose path changed: the
  // delivery aggregates are floating-point running sums, so their bits
  // depend on the whole sequence of retractions and additions.
  void retract_all(const RouteTable& routes);
  void readd_all(const RouteTable& routes);

  [[nodiscard]] double tx_rate(SensorId s) const {
    return lossy() ? tx_rate_[s] : rate_pps_ * static_cast<double>(tx_flows_[s]);
  }
  [[nodiscard]] double rx_rate(SensorId s) const {
    return lossy() ? rx_rate_[s] : rate_pps_ * static_cast<double>(rx_flows_[s]);
  }

  // Aggregate packet rate currently reaching the base station.
  [[nodiscard]] double delivery_rate() const { return delivery_rate_; }
  // Aggregate packet rate currently generated by all sources (reachable or
  // not, delivered or lost). delivery_rate()/offered_rate() is the network's
  // instantaneous delivery ratio.
  [[nodiscard]] double offered_rate() const { return offered_rate_; }

  // Rate-weighted mean hop count of delivered traffic (a per-packet latency
  // proxy: end-to-end delay ~ hops x per-hop service time). 0 when nothing
  // is being delivered. O(1): maintained incrementally per flow rather than
  // re-scanned over sources, so per-event metric snapshots stay cheap.
  // Guards on the rate it divides by: a model whose packet rate is 0
  // contributes delivering_rate_ == 0 and must not divide.
  [[nodiscard]] double average_delivery_hops() const {
    return delivering_rate_ > 0.0 ? weighted_hops_ / delivering_rate_ : 0.0;
  }

  // Optional observer: every sensor whose tx/rx rate is touched by an
  // add/remove/swap/retract/re-add is marked in `log` (DirtySet dedupes repeats at
  // insert, so touching a busy relay on every route change stays O(1)). The
  // world uses this to mark drains dirty instead of rescanning all sensors.
  // Pass nullptr to detach; the log must outlive the model while attached.
  void set_touch_log(DirtySet* log) { touch_log_ = log; }

  // Radio power draw of sensor s under `radio` (tx + rx + idle floor, plus
  // the link layer's receive duty tax for actively receiving nodes).
  [[nodiscard]] Watt radio_power(SensorId s, const RadioModel& radio) const;

  // Checkpoint codec over `routes`, the forest the flows follow. serialize
  // dumps every accumulator verbatim (the rounding residue in the lossy and
  // aggregate sums is part of the state an uninterrupted run would carry)
  // and each flow's path and link factors as read from the forest.
  // deserialize rejects a flow whose path or link factors disagree with the
  // forest, a flow whose rate is not the model's, and, for lossless flows,
  // tx/rx rates that are not the flow counts the paths imply times the
  // rate. The rate and the link model are config, not state: construct
  // and set_link_model() as the checkpointed run did before deserialize().
  void serialize(BinWriter& w, const RouteTable& routes) const;
  void deserialize(BinReader& r, const RouteTable& routes);

  // Debug oracle: recounts every lossless flow from scratch along `routes`
  // and compares the per-node counts and rates; always true for lossy flows.
  [[nodiscard]] bool counts_match(const RouteTable& routes) const;

 private:
  [[nodiscard]] bool lossy() const { return link_.enabled; }
  void set_present(SensorId s, bool on) {
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    present_[s >> 6] = on ? present_[s >> 6] | bit : present_[s >> 6] & ~bit;
  }
  void touch(SensorId s) {
    if (touch_log_ != nullptr) touch_log_->add(s);
  }
  // Lossless: one flow more (sign +1) or less (-1) through `node`,
  // transmitted and, unless `node` is the flow's source, received.
  void count(std::size_t node, int sign, bool relay);
  // Adds sign x the flow of `source` along its full route in `routes`.
  void apply(const RouteTable& routes, SensorId source, int sign);
  // The aggregate part of apply() for a lossless flow of `hops` hops.
  void account_lossless(std::size_t hops, bool reachable, int sign);
  // The delivering-flow sums, shared by both modes.
  void account(double delivered, std::size_t hops, double path_success,
               int sign);
  // Lossless counts along `source`'s full route (its own slot only when
  // unreachable); returns the nodes walked.
  std::size_t count_path(const RouteTable& routes, SensorId source, int sign);
  // Calls f(node) for every node of `source`'s route in `routes`, the
  // source first and the base station excluded; nothing when unreachable.
  template <typename F>
  static void for_each_hop(const RouteTable& routes, SensorId source, F&& f);

  double rate_pps_ = 0.0;
  // Per-node rates of lossy flows (unused, all 0, when lossless).
  std::vector<double> tx_rate_;
  std::vector<double> rx_rate_;
  // Per-node counts of lossless flows, whose rates are these times
  // rate_pps_ (unused, all 0, with the link layer on).
  std::vector<std::uint32_t> tx_flows_;
  std::vector<std::uint32_t> rx_flows_;
  double delivery_rate_ = 0.0;
  double offered_rate_ = 0.0;
  // Delivery-hop accumulators: weighted_hops_ = sum(delivered * path_len)
  // over delivering sources, delivering_rate_ = sum(delivered). The integer
  // source count lets both sums snap back to exactly 0 at quiescence, so
  // floating-point residue cannot leak into the average.
  double weighted_hops_ = 0.0;
  double delivering_rate_ = 0.0;
  std::size_t delivering_sources_ = 0;
  std::vector<std::uint64_t> present_;  // one bit per sensor
  std::size_t num_sources_ = 0;
  DirtySet* touch_log_ = nullptr;
  LinkConfig link_;
  double link_comm_range_ = 0.0;
};

}  // namespace wrsn
