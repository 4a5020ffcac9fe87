// Anomaly-based ("behavior-based") detection engine (§2.1). Learns what
// "normal" looks like per service during a training phase, then scores
// deviations. The paper's maxim: a constrained application environment —
// a tuned real-time cluster — tightens the definition of normal, which is
// where anomaly detection shines; on diverse e-commerce traffic the same
// engine drowns in Type I errors. The features below make that trade
// concrete and measurable.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ids/alert.hpp"
#include "ids/evidence.hpp"
#include "ids/fired_set.hpp"
#include "ids/scan_cache.hpp"
#include "netsim/flow_tuple.hpp"
#include "netsim/packet.hpp"
#include "util/flat_map.hpp"
#include "util/flow_table.hpp"
#include "util/stats.hpp"

namespace idseval::ids {

/// Shannon entropy of payload bytes, in bits per byte (0..8).
double payload_entropy(std::string_view payload) noexcept;

/// Maps sensitivity (0..1) to the z-score a feature must exceed to fire:
/// s=0 -> 8.0 (only extreme outliers), s=1 -> 1.5 (hair trigger).
double sensitivity_to_zscore(double sensitivity) noexcept;

struct AnomalyEngineOptions {
  double sensitivity = 0.5;
  double ewma_alpha = 0.05;       ///< Baseline adaptation rate.
  /// Subnet considered "inside"; peer-novelty features only apply to
  /// internal sources (every external customer is a novel peer, so the
  /// feature would be pure noise for them).
  netsim::Ipv4 internal_net{10, 0, 0, 0};
  int internal_prefix = 8;
  bool learn_peer_graph = true;
  /// Distinct-port fanout per source that is considered pathological even
  /// without a learned baseline.
  double fanout_window_sec = 5.0;
};

class AnomalyEngine {
 public:
  enum class Mode { kLearning, kDetecting };

  explicit AnomalyEngine(AnomalyEngineOptions options);

  void set_mode(Mode mode) noexcept { mode_ = mode; }
  Mode mode() const noexcept { return mode_; }
  void set_sensitivity(double s) noexcept { options_.sensitivity = s; }
  double sensitivity() const noexcept { return options_.sensitivity; }

  /// Attaches a pre-gate evidence observer (nullptr detaches). Purely
  /// observational: detection output is identical either way.
  void set_evidence_sink(EvidenceSink* sink) noexcept { evidence_ = sink; }

  /// Observes one packet; in detection mode appends anomaly detections.
  void process(const netsim::Packet& packet, netsim::SimTime now,
               std::vector<Detection>& out);

  /// Abstract CPU cost: entropy + baseline updates touch every byte, so
  /// anomaly inspection is slightly dearer per byte than AC matching.
  double scan_cost_ops(const netsim::Packet& packet) const noexcept;

  std::size_t learned_ports() const noexcept { return by_port_.size(); }
  std::size_t learned_peers() const noexcept { return peer_pairs_.size(); }

  /// Approximate bytes of model state (Data Storage metric input).
  std::size_t model_bytes() const noexcept;

  void reset_windows();

 private:
  struct PortModel {
    util::EwmaBaseline length;
    util::EwmaBaseline entropy;
    std::uint64_t samples = 0;
    PortModel(double alpha) : length(alpha), entropy(alpha) {}
  };
  struct SrcWindow {
    /// Tiny live-port window: flat sorted vector, not a hash map (one
    /// allocation, cache-linear pruning).
    util::FlatMap<std::uint16_t, netsim::SimTime> ports;
    netsim::SimTime cooldown_until;
  };
  struct SynWindow {
    std::deque<netsim::SimTime> events;
    netsim::SimTime cooldown_until;
  };

  bool is_internal(netsim::Ipv4 addr) const noexcept;
  /// payload_entropy through the interned-payload memo (straight
  /// recomputation when the payload is absent or the memo full).
  double cached_entropy(const netsim::Packet& packet);
  Detection make_detection(const netsim::Packet& packet, netsim::SimTime now,
                           const std::string& feature, double zscore,
                           int severity) const;
  bool fire_once(std::uint64_t feature_tag, std::uint64_t flow_id);

  AnomalyEngineOptions options_;
  Mode mode_ = Mode::kLearning;
  EvidenceSink* evidence_ = nullptr;

  util::FlowTable<std::uint32_t, PortModel> by_port_;  ///< key: port|proto
  util::EwmaBaseline fanout_baseline_;
  util::FlowTable<std::uint32_t, SrcWindow> fanout_by_src_;
  util::EwmaBaseline syn_rate_baseline_;
  util::FlowTable<std::uint32_t, SynWindow> syn_by_dst_;
  /// Learned peer graph, keyed by packed (src, dst) / (src, dst, port)
  /// tuples — exact keys, no XOR folding (see fired_set.hpp for the
  /// aliasing failure the old packing had).
  netsim::FlowTupleSet peer_pairs_;
  netsim::FlowTupleSet service_triples_;
  /// Interned-payload entropy memo (ids/scan_cache.hpp): a repeated
  /// pooled payload costs one table hit instead of an O(bytes)
  /// histogram pass, with a bit-identical value.
  PayloadMemo<double> entropy_memo_;
  FiredSet fired_;
};

}  // namespace idseval::ids
