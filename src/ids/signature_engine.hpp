// Signature-based ("knowledge-based", "misuse-based") detection engine
// (§2.1): multi-pattern payload matching plus sliding-window threshold
// rules. Only detects what its shipped database describes — novel attacks
// sail through, which is the engine's structural false-negative source.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ids/aho_corasick.hpp"
#include "ids/alert.hpp"
#include "ids/evidence.hpp"
#include "ids/fired_set.hpp"
#include "ids/rules.hpp"
#include "ids/scan_cache.hpp"
#include "netsim/packet.hpp"
#include "util/flat_map.hpp"
#include "util/flow_table.hpp"

namespace idseval::ids {

/// Converts the shared sensitivity knob (0..1) into the minimum rule
/// confidence that is allowed to fire. Higher sensitivity admits weaker
/// rules: more true detections, more Type I errors (Figure 4's x-axis).
double sensitivity_to_min_confidence(double sensitivity) noexcept;
/// Scales a threshold rule's trigger level: higher sensitivity lowers the
/// bar (fires earlier).
double sensitivity_threshold_scale(double sensitivity) noexcept;

struct SignatureEngineOptions {
  double sensitivity = 0.5;
  /// When false the engine only evaluates header/threshold rules — the
  /// cheap mode whose inadequacy the X3 ablation demonstrates.
  bool deep_inspection = true;
  /// Stream reassembly: carry each flow's matcher state across packets,
  /// so patterns split across packet boundaries (Ptacek-Newsham evasion)
  /// still match. Costs per-flow memory and boundary work — engines
  /// without it are faster and blind to kEvasiveExploit.
  bool stream_reassembly = false;
  /// How much of a flow's past stream reassembly keeps in view: each
  /// packet's hits are those of a scan over the stream's last
  /// reassembly_tail_bytes joined with the payload. Clamped to 64.
  std::size_t reassembly_tail_bytes = 64;
};

class SignatureEngine {
 public:
  SignatureEngine(RuleSet rules, SignatureEngineOptions options);

  /// Evaluates one packet; appends any detections (at most one per rule
  /// per flow — real engines suppress duplicate alerts).
  void process(const netsim::Packet& packet, netsim::SimTime now,
               std::vector<Detection>& out);

  void set_sensitivity(double s) noexcept { options_.sensitivity = s; }
  double sensitivity() const noexcept { return options_.sensitivity; }
  bool deep_inspection() const noexcept { return options_.deep_inspection; }

  /// Attaches a pre-gate evidence observer (nullptr detaches). Purely
  /// observational: detection output is identical either way.
  void set_evidence_sink(EvidenceSink* sink) noexcept { evidence_ = sink; }

  const RuleSet& rules() const noexcept { return rules_; }

  /// Abstract CPU cost of scanning this packet (drives the sensor's
  /// service-time model): header rules are O(1); deep inspection pays per
  /// payload byte.
  double scan_cost_ops(const netsim::Packet& packet) const noexcept;

  /// Clears all sliding-window state (used between measurement phases).
  void reset_state();

  /// Approximate bytes of per-flow reassembly state (storage accounting).
  std::size_t reassembly_bytes() const noexcept;

 private:
  struct PortFanout {
    /// Tiny (a handful of live ports), so a flat sorted vector beats the
    /// node-based hash map it replaced on allocations and cache lines.
    util::FlatMap<std::uint16_t, netsim::SimTime> last_seen;
    netsim::SimTime cooldown_until;
  };
  struct RateWindow {
    std::deque<netsim::SimTime> events;
    netsim::SimTime cooldown_until;
  };
  /// Longest stream suffix reassembly keeps in view.
  static constexpr std::size_t kMaxTailBytes = 64;
  /// A pattern occurrence near the end of a stream or payload: `distance`
  /// counts the bytes from the occurrence's first byte to the end.
  struct TailHit {
    std::uint32_t pattern_id;
    std::uint32_t distance;
  };
  /// One payload scanned from the automaton root, all from a single walk
  /// (memoized per interned payload; sensitivity-independent — the
  /// confidence gate applies after matching).
  struct PayloadScan {
    std::vector<std::size_t> ids;  ///< Sorted-unique ids: find_set(payload).
    /// Each pattern's latest occurrence starting within the payload's
    /// last reassembly_tail_bytes.
    std::vector<TailHit> tail_hits;
    /// State after the payload, depth-clamped to reassembly_tail_bytes.
    AhoCorasick::Node end_node = AhoCorasick::kRoot;
  };
  /// Per-flow reassembly state: the automaton state after the stream's
  /// last reassembly_tail_bytes. A flow with a pattern occurrence lying
  /// inside that window also owns a TailHit list in stream_tail_hits_.
  struct StreamState {
    AhoCorasick::Node node = AhoCorasick::kRoot;
    bool has_tail_hits = false;
  };

  void check_patterns(const netsim::Packet& packet, netsim::SimTime now,
                      double min_conf, std::vector<Detection>& out);
  /// Walks `payload` from the root into `scan`.
  void scan_payload(std::string_view payload, PayloadScan& scan);
  /// Walks a payload the memo lacks; returns the memoized copy, or
  /// scratch_scan_ when the memo is full.
  const PayloadScan& fill_scan(
      const std::shared_ptr<const std::string>& payload);
  /// The pattern ids find_set(tail || payload) would report for this
  /// flow, where tail is the stream's last reassembly_tail_bytes; then
  /// advances the flow's state past the payload.
  const std::vector<std::size_t>& stream_hits(std::uint64_t flow_id,
                                              std::string_view payload,
                                              const PayloadScan& scan);
  void check_thresholds(const netsim::Packet& packet, netsim::SimTime now,
                        double min_conf, std::vector<Detection>& out);
  bool already_fired(std::size_t rule_tag, std::uint64_t flow_id);
  Detection make_detection(const netsim::Packet& packet, netsim::SimTime now,
                           const std::string& rule, double confidence,
                           int severity) const;

  RuleSet rules_;
  SignatureEngineOptions options_;
  EvidenceSink* evidence_ = nullptr;
  std::unique_ptr<AhoCorasick> matcher_;
  /// matcher pattern id -> index into rules_.patterns.
  std::vector<std::size_t> pattern_rule_index_;

  util::FlowTable<std::uint32_t, PortFanout> fanout_by_src_;
  util::FlowTable<std::uint32_t, RateWindow> syn_by_dst_;
  util::FlowTable<std::uint64_t, RateWindow> rate_by_flow_;
  util::FlowTable<std::uint64_t, StreamState> stream_state_;
  util::FlowTable<std::uint64_t, std::vector<TailHit>> stream_tail_hits_;
  /// Interned-payload memo (ids/scan_cache.hpp) of each pooled
  /// payload's automaton walk: hit ids, end state, matches near its end.
  PayloadMemo<PayloadScan> payload_memo_;
  PayloadScan scratch_scan_;  ///< Memo at capacity.
  std::vector<std::uint8_t> seen_;  ///< Per-pattern scratch for walks.
  std::vector<std::size_t> hits_;   ///< Reused per-packet hit union.
  telemetry::Counter* boundary_rescans_;
  FiredSet fired_;  ///< Exact (rule_tag, flow) pairs (see fired_set.hpp).
};

}  // namespace idseval::ids
