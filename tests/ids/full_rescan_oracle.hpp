// Reference stream scanner: the naive full rescan the streaming
// SignatureEngine must reproduce. Each flow keeps its literal tail (the
// last reassembly_tail_bytes of its byte stream), every payload is
// matched by a plain substring search over tail || payload, and the
// matched pattern rules then pass the same gate as in the engine: port
// and protocol filter, pre-gate evidence, confidence, once per rule per
// flow. Threshold rules are out of scope; compare against an engine
// whose rule set has none.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "ids/signature_engine.hpp"
#include "telemetry/registry.hpp"

namespace idseval::ids::oracle {

/// Records every pre-gate observation, so engines can be compared on the
/// full evidence stream and not just on gated detections.
struct RecordingSink : EvidenceSink {
  struct Obs {
    std::uint64_t flow;
    EvidenceChannel channel;
    double strength;
    double critical;
    bool strict;
    bool operator==(const Obs&) const = default;
  };
  std::vector<Obs> observations;
  void observe(std::uint64_t flow_id, EvidenceChannel channel,
               double strength, double critical_sensitivity,
               bool strict_trigger) override {
    observations.push_back(
        Obs{flow_id, channel, strength, critical_sensitivity, strict_trigger});
  }
};

class FullRescanOracle {
 public:
  FullRescanOracle(RuleSet rules, SignatureEngineOptions options)
      : rules_(std::move(rules)), options_(options) {
    options_.reassembly_tail_bytes =
        std::min<std::size_t>(options_.reassembly_tail_bytes, 64);
  }

  void set_evidence_sink(EvidenceSink* sink) { evidence_ = sink; }

  /// Ascending ids of the patterns that occur in tail || payload (or in
  /// the payload alone without reassembly); then keeps the stream's last
  /// reassembly_tail_bytes as the flow's new tail.
  std::vector<std::size_t> scan(std::uint64_t flow_id,
                                std::string_view payload) {
    std::string text;
    if (options_.stream_reassembly) text = tails_[flow_id];
    text.append(payload);
    std::vector<std::size_t> hits;
    for (std::size_t pid = 0; pid < rules_.patterns.size(); ++pid) {
      if (text.find(rules_.patterns[pid].pattern) != std::string::npos) {
        hits.push_back(pid);
      }
    }
    if (options_.stream_reassembly) {
      const std::size_t keep =
          std::min(text.size(), options_.reassembly_tail_bytes);
      tails_[flow_id] = text.substr(text.size() - keep);
    }
    return hits;
  }

  /// Pattern-rule half of SignatureEngine::process.
  void process(const netsim::Packet& packet, netsim::SimTime now,
               std::vector<Detection>& out) {
    last_hits_.clear();
    if (!options_.deep_inspection || packet.payload_bytes() == 0) return;
    const double min_conf =
        sensitivity_to_min_confidence(options_.sensitivity);
    last_hits_ = scan(packet.flow_id, packet.payload_view());
    for (const std::size_t pid : last_hits_) {
      const PatternRule& rule = rules_.patterns[pid];
      if (rule.dst_port && *rule.dst_port != packet.tuple.dst_port) continue;
      if (rule.proto && *rule.proto != packet.tuple.proto) continue;
      if (evidence_ != nullptr) {
        evidence_->observe(packet.flow_id, EvidenceChannel::kSignaturePattern,
                           rule.confidence,
                           sensitivity_for_confidence(rule.confidence),
                           /*strict_trigger=*/false);
      }
      if (rule.confidence < min_conf) continue;
      if (!fired_.insert({pid, packet.flow_id}).second) continue;
      Detection d;
      d.flow_id = packet.flow_id;
      d.tuple = packet.tuple;
      d.when = now;
      d.rule = rule.name;
      d.confidence = rule.confidence;
      d.severity = rule.severity;
      d.method = DetectionMethod::kSignature;
      out.push_back(std::move(d));
    }
  }

  /// The hits of the last process() call.
  const std::vector<std::size_t>& last_hits() const { return last_hits_; }

  void reset_state() {
    tails_.clear();
    fired_.clear();
  }

 private:
  RuleSet rules_;
  SignatureEngineOptions options_;
  EvidenceSink* evidence_ = nullptr;
  std::map<std::uint64_t, std::string> tails_;
  std::set<std::pair<std::size_t, std::uint64_t>> fired_;
  std::vector<std::size_t> last_hits_;
};

/// The fields two runs must agree on, in a form gtest can compare.
using DetectionKey = std::tuple<std::uint64_t, std::string, std::int64_t,
                                double, int, DetectionMethod>;
inline std::vector<DetectionKey> detection_keys(
    const std::vector<Detection>& detections) {
  std::vector<DetectionKey> keys;
  for (const Detection& d : detections) {
    keys.emplace_back(d.flow_id, d.rule, d.when.ns(), d.confidence,
                      d.severity, d.method);
  }
  return keys;
}

/// What one engine produced over a replay.
struct ReplaySide {
  RecordingSink sink;
  std::vector<Detection> detections;
  /// Evidence observations per packet: with equal evidence streams,
  /// equal counts make the per-packet slices equal too.
  std::vector<std::size_t> per_packet;
};

/// Feeds the same packets to the production engine and to the oracle.
/// The engine is built under its own telemetry registry, so its memo
/// traffic is readable through counter().
class OracleReplay {
 public:
  OracleReplay(const RuleSet& rules, SignatureEngineOptions options)
      : engine(scoped_engine(registry, rules, options)),
        oracle(rules, options) {
    engine.set_evidence_sink(&actual.sink);
    oracle.set_evidence_sink(&reference.sink);
  }

  void feed(const netsim::Packet& packet, netsim::SimTime now) {
    run(engine, actual, packet, now);
    run(oracle, reference, packet, now);
    oracle_hits.push_back(oracle.last_hits());
  }

  void reset_state() {
    engine.reset_state();
    oracle.reset_state();
  }

  /// The engine's value of a telemetry counter ("scan_cache.hits", ...).
  std::uint64_t counter(std::string_view name) const {
    const telemetry::Counter* c = registry.find_counter(name);
    return c == nullptr ? 0 : c->value();
  }

  /// The engine's instruments; declared first, since the engine binds
  /// its counters while it is constructed.
  telemetry::Registry registry;
  SignatureEngine engine;
  FullRescanOracle oracle;
  ReplaySide actual;
  ReplaySide reference;
  std::vector<std::vector<std::size_t>> oracle_hits;  ///< Per packet.

 private:
  static SignatureEngine scoped_engine(telemetry::Registry& registry,
                                       const RuleSet& rules,
                                       SignatureEngineOptions options) {
    telemetry::ScopedRegistry scope(&registry);
    return SignatureEngine(rules, options);
  }
  template <class Engine>
  static void run(Engine& engine, ReplaySide& side,
                  const netsim::Packet& packet, netsim::SimTime now) {
    const std::size_t before = side.sink.observations.size();
    engine.process(packet, now, side.detections);
    side.per_packet.push_back(side.sink.observations.size() - before);
  }
};

}  // namespace idseval::ids::oracle
