// The evaluation testbed: one protected enclave (internal hosts on a LAN
// switch), an external attacker/client population behind a WAN link, a
// product under test attached per its architecture, background traffic
// from an environment profile, and a scripted attack scenario with ground
// truth. A Testbed run is a pure function of (config, product,
// sensitivity, scenario) — the scientific repeatability §1 demands.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/emitter.hpp"
#include "attack/killchain.hpp"
#include "attack/scenario.hpp"
#include "ids/pipeline.hpp"
#include "score/breakdown.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "products/catalog.hpp"
#include "traffic/flowgen.hpp"
#include "netsim/stream.hpp"
#include "traffic/ledger.hpp"
#include "traffic/payload_pool.hpp"
#include "traffic/profile.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace idseval::score {
class ScoreLedger;
}  // namespace idseval::score

namespace idseval::harness {

struct TestbedConfig {
  std::size_t internal_hosts = 8;
  std::size_t external_hosts = 4;
  double host_cpu_ops_per_sec = 1e9;
  traffic::EnvironmentProfile profile = traffic::rt_cluster_profile();
  double rate_scale = 1.0;       ///< Load knob over the profile's rate.
  /// Same-tick packets per flood train for attack floods (see
  /// AttackEmitter::set_flood_train); 1 = legacy per-packet emission.
  std::uint32_t flood_train = 1;
  /// Must be 1: the testbed runs on one event queue. Any other value
  /// throws std::invalid_argument from the Testbed constructor, so a
  /// caller still asking for shards fails loudly, not silently.
  std::size_t shards = 1;
  /// Interned-payload scan cache in the detection engines (ISSUE 9):
  /// false (--no-scan-cache) replays the exact legacy full-rescan path.
  /// Results are byte-identical either way; only wall-clock changes.
  bool scan_cache = true;
  std::uint64_t seed = 42;
  netsim::SimTime warmup = netsim::SimTime::from_sec(20);   ///< Learning.
  netsim::SimTime measure = netsim::SimTime::from_sec(60);  ///< Scoring.
  netsim::SimTime drain = netsim::SimTime::from_sec(5);     ///< Tail.
};

/// Per-attack-kind detection outcome.
struct KindOutcome {
  std::size_t launched = 0;
  std::size_t detected = 0;
  /// Suppressed by an earlier automated block before any packet reached a
  /// sensor — a response success, not a Type II error.
  std::size_t prevented = 0;
};

/// Everything a single testbed run observes.
struct RunResult {
  std::string product;
  double sensitivity = 0.5;

  // Transaction-level confusion (Figure 3).
  std::size_t transactions = 0;   ///< |T|
  std::size_t attacks = 0;        ///< |A|
  std::size_t detected = 0;       ///< |D| (alerted transactions)
  std::size_t true_detections = 0;   ///< |A ∩ D|
  std::size_t false_alarms = 0;      ///< |D - A|
  std::size_t missed_attacks = 0;    ///< |A - D - P|: genuinely unseen.
  /// P: attacks launched after the console blocked their source — the
  /// firewall discarded them before any sensor could observe them.
  /// Counting these as false negatives would punish products for
  /// reacting, so they are a separate category.
  std::size_t prevented_attacks = 0;
  double fp_ratio = 0.0;          ///< |D - A| / |T|
  double fn_ratio = 0.0;          ///< |A - D - P| / |T|

  // Timeliness (occurrence -> operator report), seconds.
  double timeliness_mean_sec = 0.0;
  double timeliness_max_sec = 0.0;

  // Load / loss.
  double offered_pps = 0.0;       ///< Packets offered to the network.
  double tapped_pps = 0.0;        ///< Packets the IDS saw.
  double processed_pps = 0.0;     ///< Packets the IDS fully analyzed.
  double ids_loss_ratio = 0.0;
  std::uint64_t sensor_failures = 0;  ///< Failure events + sensors still down.

  // Table 3 denominates two metrics "in packets/sec or # of simultaneous
  // TCP streams"; the stream view comes from a tracker on the LAN mirror.
  std::size_t peak_concurrent_streams = 0;
  std::uint64_t total_streams = 0;

  // Production-path latency (for induced-latency measurement).
  double mean_delivery_latency_sec = 0.0;
  double p99_delivery_latency_sec = 0.0;

  // Host impact (Operational Performance Impact).
  double max_host_ids_cpu = 0.0;
  double mean_host_ids_cpu = 0.0;

  // Storage (Data Storage metric): analyzer bytes per MB of tapped data.
  double storage_bytes_per_mb = 0.0;

  // Reaction (Firewall Interaction / Effectiveness of Generated Filters).
  std::uint64_t firewall_blocks = 0;
  std::uint64_t snmp_traps = 0;
  std::uint64_t alerts_raised = 0;
  /// Attack transactions from blocked sources starting after the block
  /// took effect (the filter worked) vs benign transactions from the
  /// same sources equally shut out (collateral damage, §2.2's "faulty
  /// policy risks shutting out legitimate users").
  std::size_t post_block_attacks_suppressed = 0;
  std::size_t post_block_benign_collateral = 0;

  std::map<attack::AttackKind, KindOutcome> per_kind;

  /// Per-technique / per-stage detection breakdown over the labeled
  /// attack transactions of the window (ATT&CK ids from AttackTraits,
  /// stages from the kill-chain ground truth or the kind defaults).
  score::DetectionBreakdown breakdown;
};

class Testbed {
 public:
  /// `model == nullptr` runs a baseline with no IDS attached (used to
  /// difference out the network's own latency for Induced Traffic
  /// Latency).
  Testbed(TestbedConfig config, const products::ProductModel* model,
          double sensitivity);
  ~Testbed();

  /// Runs warmup (attack-free, anomaly engines learning) then the
  /// measurement phase with the scenario injected. Scenario step times
  /// are interpreted relative to the start of the measurement phase.
  RunResult run(const attack::Scenario& scenario);

  /// Runs a kill-chain campaign: stage k+1 launches only after stage k's
  /// flows finish emitting, with lateral/exfil stages pivoting onto
  /// compromised hosts (attack::KillChain::run). Stage offsets are
  /// relative to each stage's dynamic start. Singleton chains degrade to
  /// the flat Scenario overload — the exact legacy code path, so the
  /// golden determinism hash is untouched when no multi-stage chain is
  /// configured.
  RunResult run(const attack::KillChain& chain);

  /// Optional score ledger: when set before run(), the pipeline records
  /// pre-gate detector evidence into it for the measurement window and
  /// collect() finalizes it against ground truth. Off by default, and
  /// purely observational — run results are identical either way.
  void set_score_ledger(score::ScoreLedger* ledger) noexcept {
    score_ledger_ = ledger;
  }

  /// Convenience: run with no attacks at all (pure load measurement).
  RunResult run_clean();

  netsim::Simulator& sim() noexcept { return sim_; }
  netsim::Network& net() noexcept { return *net_; }
  ids::Pipeline* pipeline() noexcept { return pipeline_.get(); }
  const traffic::TransactionLedger& ledger() const noexcept {
    return ledger_;
  }
  const std::vector<netsim::Ipv4>& internal_addresses() const noexcept {
    return internal_;
  }
  const std::vector<netsim::Ipv4>& external_addresses() const noexcept {
    return external_;
  }

 private:
  void build();
  /// The shared three-phase run skeleton (warmup / measure / drain).
  /// `inject` runs at the phase-2 boundary and schedules the attack
  /// traffic for the measurement window starting at `measure_start`.
  template <class Inject>
  RunResult run_phases(const Inject& inject);
  RunResult collect(netsim::SimTime measure_start,
                    netsim::SimTime measure_end);

  TestbedConfig config_;
  const products::ProductModel* model_;
  double sensitivity_;
  score::ScoreLedger* score_ledger_ = nullptr;

  netsim::Simulator sim_;
  std::unique_ptr<netsim::Network> net_;
  std::unique_ptr<ids::Pipeline> pipeline_;
  /// One pool per simulation, shared by background and attack traffic;
  /// declared before its users so it outlives them.
  std::unique_ptr<traffic::PayloadPool> payload_pool_;
  std::unique_ptr<traffic::FlowGenerator> flowgen_;
  std::unique_ptr<attack::AttackEmitter> emitter_;
  traffic::TransactionLedger ledger_;
  netsim::StreamTracker streams_;

  std::vector<netsim::Ipv4> internal_;
  std::vector<netsim::Ipv4> external_;
  /// Production-path delivery latency, accumulated per host; collect()
  /// merges them in host order. The golden hash pins that summation
  /// order: one shared accumulator would move the floating-point
  /// latency fields.
  struct HostDelivery {
    util::RunningStats latency;       ///< Production path, seconds.
    util::LogHistogram hist;          ///< For the real p99.
  };
  std::vector<std::unique_ptr<HostDelivery>> host_delivery_;
};

}  // namespace idseval::harness
