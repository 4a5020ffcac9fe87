// Background traffic generation: turns an EnvironmentProfile into a
// stream of flows injected through the Network. Arrivals follow a
// two-state Markov-modulated Poisson process (normal/burst); flow lengths
// are Pareto; packets within a flow are paced with exponential gaps. All
// randomness flows from one seed, so a run is reproducible.
//
// The per-packet path is allocation-free in steady state: live flows are
// FlowState records in a slab (freed records recycle through a free
// list), the scheduled continuation captures only {this, handle} so it
// fits the simulator's inline callback storage, and payloads come
// interned from a PayloadPool instead of being synthesized per packet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "traffic/ledger.hpp"
#include "traffic/payload_pool.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"

namespace idseval::traffic {

struct FlowGenStats {
  std::uint64_t flows_started = 0;
  std::uint64_t packets_emitted = 0;
  std::uint64_t bytes_emitted = 0;
};

class FlowGenerator {
 public:
  /// `pool` may be shared with other generators of the same simulation
  /// (the testbed shares one with the attack emitter); when null the
  /// generator owns a private pool derived from `seed`.
  FlowGenerator(netsim::Simulator& sim, netsim::Network& net,
                TransactionLedger* ledger, EnvironmentProfile profile,
                std::uint64_t seed, PayloadPool* pool = nullptr);

  /// Hosts that may source/sink flows. Internal hosts are both; external
  /// hosts only source (toward internal destinations) and receive replies.
  void set_internal_hosts(std::vector<netsim::Ipv4> hosts);
  void set_external_hosts(std::vector<netsim::Ipv4> hosts);

  /// Scales the profile's arrival rate — the load knob for throughput
  /// sweeps (Table 3's load-dependent metrics).
  void set_rate_scale(double scale) noexcept { rate_scale_ = scale; }
  double rate_scale() const noexcept { return rate_scale_; }

  /// Begins generating; flow arrivals stop at `until` (in-flight flows
  /// finish their remaining packets).
  void start(netsim::SimTime until);

  /// Emits `count` back-to-back packets of one flow right now (no pacing
  /// gaps), producing a same-tick arrival train on zero-bandwidth links —
  /// the worst-case fan-out that batched delivery coalesces. Intended for
  /// benches/tests; ledger and stats accounting match paced emission.
  void emit_burst(netsim::Ipv4 src, netsim::Ipv4 dst,
                  std::uint16_t dst_port, std::uint32_t count,
                  std::size_t payload_bytes);

  const FlowGenStats& stats() const noexcept { return stats_; }
  const EnvironmentProfile& profile() const noexcept { return profile_; }
  const PayloadPool& payload_pool() const noexcept { return *pool_; }

  /// Live (not yet completed) flows — slab occupancy, for tests.
  std::size_t live_flows() const noexcept { return live_flows_; }

 private:
  /// Index into the FlowState slab; fits a callback capture alongside
  /// `this` well inside the inline buffer.
  using FlowHandle = std::uint32_t;
  static constexpr FlowHandle kNilHandle = ~FlowHandle{0};

  /// Per-flow emission state. Recycled through a free list so steady
  /// state never grows the slab.
  struct FlowState {
    netsim::FiveTuple tuple;
    std::uint64_t flow_id = 0;
    /// Cached ledger record (node-based map => pointer-stable); skips the
    /// per-packet hash lookup on the emit path. Null when no ledger.
    Transaction* txn = nullptr;
    double interval_ms = 0.0;
    std::uint32_t seq = 0;
    std::uint32_t remaining = 0;
    PayloadKind kind = PayloadKind::kRandom;
    FlowHandle next_free = kNilHandle;
  };

  void schedule_next_arrival();
  void launch_flow();
  /// Emits the flow's next packet and reschedules itself until the flow
  /// is drained, then releases the record.
  void step_flow(FlowHandle handle);
  FlowHandle alloc_flow_state();
  void release_flow_state(FlowHandle handle);
  netsim::Ipv4 pick_source();
  netsim::Ipv4 pick_destination(netsim::Ipv4 source);
  double current_rate() const noexcept;
  void toggle_burst();

  netsim::Simulator& sim_;
  netsim::Network& net_;
  TransactionLedger* ledger_;
  EnvironmentProfile profile_;
  util::Rng rng_;
  std::unique_ptr<PayloadPool> owned_pool_;
  PayloadPool* pool_;

  std::vector<netsim::Ipv4> internal_;
  std::vector<netsim::Ipv4> external_;
  std::vector<double> mix_weights_;

  std::vector<FlowState> slab_;
  FlowHandle free_head_ = kNilHandle;
  std::size_t live_flows_ = 0;

  double rate_scale_ = 1.0;
  bool in_burst_ = false;
  netsim::SimTime stop_time_;
  bool started_ = false;
  FlowGenStats stats_;
};

}  // namespace idseval::traffic
