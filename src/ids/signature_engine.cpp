#include "ids/signature_engine.hpp"

#include <algorithm>

namespace idseval::ids {

using netsim::Packet;
using netsim::SimTime;

double sensitivity_to_min_confidence(double sensitivity) noexcept {
  const double s = std::clamp(sensitivity, 0.0, 1.0);
  // s=0 -> 0.95 (only near-certain rules), s=1 -> 0.25 (almost anything).
  return 0.95 - 0.70 * s;
}

double sensitivity_threshold_scale(double sensitivity) noexcept {
  const double s = std::clamp(sensitivity, 0.0, 1.0);
  // s=0 -> 1.6x the shipped threshold, s=0.5 -> 1.0x, s=1 -> 0.4x.
  return 1.6 - 1.2 * s;
}

SignatureEngine::SignatureEngine(RuleSet rules,
                                 SignatureEngineOptions options)
    : rules_(std::move(rules)),
      options_(options),
      boundary_rescans_(telemetry::counter_handle(
          telemetry::names::kScanCacheBoundaryRescans)) {
  options_.reassembly_tail_bytes =
      std::min(options_.reassembly_tail_bytes, kMaxTailBytes);
  std::vector<std::string> patterns;
  patterns.reserve(rules_.patterns.size());
  for (std::size_t i = 0; i < rules_.patterns.size(); ++i) {
    patterns.push_back(rules_.patterns[i].pattern);
    pattern_rule_index_.push_back(i);
  }
  if (!patterns.empty()) {
    matcher_ = std::make_unique<AhoCorasick>(patterns);
    seen_.assign(patterns.size(), 0);
  }
}

double SignatureEngine::scan_cost_ops(const Packet& packet) const noexcept {
  // The service model of a 2002-era reassembling engine, which rescans
  // the retained tail with every payload and pays its copy costs. It is
  // deliberately left unchanged although this engine carries automaton
  // state instead: simulated time, and with it every measured figure and
  // the golden determinism hash, must not move with host-side speedups.
  //
  // Header rule evaluation + window bookkeeping.
  double ops = 600.0;
  if (options_.deep_inspection && packet.payload_bytes() > 0) {
    // One automaton transition per byte, ~12 abstract ops each.
    double bytes = static_cast<double>(packet.payload_bytes());
    if (options_.stream_reassembly) {
      bytes += static_cast<double>(options_.reassembly_tail_bytes);
      ops += 400.0;  // per-flow buffer management
    }
    ops += 12.0 * bytes;
  }
  return ops;
}

std::size_t SignatureEngine::reassembly_bytes() const noexcept {
  // Each live flow owns one StreamState slab slot plus its ~16 byte table
  // slot; the few flows with a match inside the window add a TailHit
  // list (slab slot, table slot and heap capacity).
  std::size_t bytes = stream_state_.size() * (sizeof(StreamState) + 16);
  stream_tail_hits_.for_each(
      [&](std::uint64_t, const std::vector<TailHit>& hits) {
        bytes += sizeof(hits) + 16 + hits.capacity() * sizeof(TailHit);
      });
  return bytes;
}

void SignatureEngine::process(const Packet& packet, SimTime now,
                              std::vector<Detection>& out) {
  const double min_conf =
      sensitivity_to_min_confidence(options_.sensitivity);
  if (options_.deep_inspection && matcher_ && packet.payload_bytes() > 0) {
    check_patterns(packet, now, min_conf, out);
  }
  check_thresholds(packet, now, min_conf, out);
}

bool SignatureEngine::already_fired(std::size_t rule_tag,
                                    std::uint64_t flow_id) {
  return !fired_.insert(
      FireKey{flow_id, static_cast<std::uint64_t>(rule_tag)});
}

Detection SignatureEngine::make_detection(const Packet& packet, SimTime now,
                                          const std::string& rule,
                                          double confidence,
                                          int severity) const {
  Detection d;
  d.flow_id = packet.flow_id;
  d.tuple = packet.tuple;
  d.when = now;
  d.rule = rule;
  d.confidence = confidence;
  d.severity = severity;
  d.method = DetectionMethod::kSignature;
  return d;
}

namespace {

/// Records an occurrence `distance` bytes from the end, keeping the
/// latest (nearest) one per pattern.
template <class TailHit>
void note_tail_hit(std::vector<TailHit>& hits, std::uint32_t pattern_id,
                   std::uint32_t distance) {
  for (TailHit& hit : hits) {
    if (hit.pattern_id == pattern_id) {
      hit.distance = std::min(hit.distance, distance);
      return;
    }
  }
  hits.push_back(TailHit{pattern_id, distance});
}

}  // namespace

void SignatureEngine::scan_payload(std::string_view payload,
                                   PayloadScan& scan) {
  scan.ids.clear();
  scan.tail_hits.clear();
  const std::size_t n = payload.size();
  const std::size_t tail = options_.reassembly_tail_bytes;
  AhoCorasick::Node node = AhoCorasick::kRoot;
  for (std::size_t i = 0; i < n; ++i) {
    node = matcher_->step(node, static_cast<unsigned char>(payload[i]));
    for (const std::int32_t pid : matcher_->outputs(node)) {
      const auto id = static_cast<std::size_t>(pid);
      if (seen_[id] == 0) {
        seen_[id] = 1;
        scan.ids.push_back(id);
      }
      const std::size_t distance = n - (i + 1) + matcher_->pattern_length(id);
      if (distance <= tail) {
        note_tail_hit(scan.tail_hits, static_cast<std::uint32_t>(pid),
                      static_cast<std::uint32_t>(distance));
      }
    }
  }
  for (const std::size_t id : scan.ids) seen_[id] = 0;
  std::sort(scan.ids.begin(), scan.ids.end());
  scan.end_node = matcher_->clamp_depth(node, tail);
}

const SignatureEngine::PayloadScan& SignatureEngine::fill_scan(
    const std::shared_ptr<const std::string>& payload) {
  scan_payload(*payload, scratch_scan_);
  const PayloadScan* stored = payload_memo_.store(payload, scratch_scan_);
  return stored != nullptr ? *stored : scratch_scan_;
}

const std::vector<std::size_t>& SignatureEngine::stream_hits(
    std::uint64_t flow_id, std::string_view payload,
    const PayloadScan& scan) {
  const std::size_t n = payload.size();
  const std::size_t tail = options_.reassembly_tail_bytes;
  StreamState& state = *stream_state_.try_emplace(flow_id).first;
  std::vector<TailHit>* tail_hits =
      state.has_tail_hits ? stream_tail_hits_.find(flow_id) : nullptr;
  const auto note = [&](std::uint32_t pattern_id, std::size_t distance) {
    if (distance > tail) return;
    if (tail_hits == nullptr) {
      tail_hits = stream_tail_hits_.try_emplace(flow_id).first;
    }
    note_tail_hit(*tail_hits, pattern_id,
                  static_cast<std::uint32_t>(distance));
  };

  hits_.clear();
  // Patterns lying wholly inside the retained tail: a scan of
  // tail || payload reports them again. Then age them past the payload;
  // those that slide out of the window are forgotten.
  if (tail_hits != nullptr) {
    for (TailHit& hit : *tail_hits) {
      hits_.push_back(hit.pattern_id);
      hit.distance += static_cast<std::uint32_t>(n);
    }
    std::erase_if(*tail_hits,
                  [&](const TailHit& hit) { return hit.distance > tail; });
  }

  // Boundary walk: step the carried state over the payload's head while
  // it still reaches back into the tail (depth > bytes stepped). Every
  // match that crosses the boundary ends in this stretch, which is at
  // most L-1 bytes long. Once the state fits inside the payload it
  // equals the state of the payload's own walk, whose hits the scan
  // already holds.
  const std::size_t limit =
      std::min(n, matcher_->max_pattern_length() - 1);
  AhoCorasick::Node node = state.node;
  std::size_t k = 0;
  while (k < limit && matcher_->depth(node) > k) {
    node = matcher_->step(node, static_cast<unsigned char>(payload[k]));
    ++k;
    for (const std::int32_t pid : matcher_->outputs(node)) {
      const auto id = static_cast<std::size_t>(pid);
      hits_.push_back(id);
      note(static_cast<std::uint32_t>(pid),
           n - k + matcher_->pattern_length(id));
    }
  }
  if (k > 0) telemetry::bump(boundary_rescans_);
  // A payload of at least L bytes fixes the end state by itself.
  const bool straddles =
      n < matcher_->max_pattern_length() && matcher_->depth(node) > k;
  state.node = straddles ? matcher_->clamp_depth(node, tail) : scan.end_node;
  for (const TailHit& hit : scan.tail_hits) note(hit.pattern_id, hit.distance);
  state.has_tail_hits = tail_hits != nullptr && !tail_hits->empty();

  if (hits_.empty()) return scan.ids;
  hits_.insert(hits_.end(), scan.ids.begin(), scan.ids.end());
  std::sort(hits_.begin(), hits_.end());
  hits_.erase(std::unique(hits_.begin(), hits_.end()), hits_.end());
  return hits_;
}

void SignatureEngine::check_patterns(const Packet& packet, SimTime now,
                                     double min_conf,
                                     std::vector<Detection>& out) {
  // One algorithm whether or not the payload is memoized: the memo only
  // saves re-walking payloads it has seen.
  const PayloadScan* memoized = payload_memo_.find(packet.payload);
  if (memoized != nullptr) payload_memo_.credit_saved(packet.payload_bytes());
  const PayloadScan& scan =
      memoized != nullptr ? *memoized : fill_scan(packet.payload);
  const std::vector<std::size_t>& hits =
      options_.stream_reassembly
          ? stream_hits(packet.flow_id, packet.payload_view(), scan)
          : scan.ids;
  for (const std::size_t pid : hits) {
    const PatternRule& rule = rules_.patterns[pattern_rule_index_[pid]];
    if (rule.dst_port && *rule.dst_port != packet.tuple.dst_port) continue;
    if (rule.proto && *rule.proto != packet.tuple.proto) continue;
    // Pre-gate evidence: a matched pattern fires once sensitivity admits
    // its confidence, independent of the current knob setting.
    if (evidence_) {
      evidence_->observe(packet.flow_id, EvidenceChannel::kSignaturePattern,
                         rule.confidence,
                         sensitivity_for_confidence(rule.confidence),
                         /*strict_trigger=*/false);
    }
    if (rule.confidence < min_conf) continue;
    if (already_fired(pattern_rule_index_[pid], packet.flow_id)) continue;
    out.push_back(make_detection(packet, now, rule.name, rule.confidence,
                                 rule.severity));
  }
}

void SignatureEngine::check_thresholds(const Packet& packet, SimTime now,
                                       double min_conf,
                                       std::vector<Detection>& out) {
  const double scale = sensitivity_threshold_scale(options_.sensitivity);
  // Pre-gate evidence for window rules. A rule fires once sensitivity
  // both admits its confidence and scales the trigger below the observed
  // count, so the critical sensitivity is the max of the two inverses.
  // Unlike pattern rules this is approximate across knob settings: the
  // confidence gate above also gates window updates, so windows only
  // accumulate while the recording sensitivity admits the rule.
  const auto observe_count = [&](const ThresholdRule& rule, double count) {
    if (!evidence_) return;
    const double ratio = count / static_cast<double>(rule.threshold);
    const double critical =
        std::max(sensitivity_for_confidence(rule.confidence),
                 sensitivity_for_threshold_ratio(ratio));
    evidence_->observe(packet.flow_id, EvidenceChannel::kSignatureThreshold,
                       ratio, critical, /*strict_trigger=*/false);
  };
  for (std::size_t r = 0; r < rules_.thresholds.size(); ++r) {
    const ThresholdRule& rule = rules_.thresholds[r];
    if (rule.confidence < min_conf) continue;
    if (rule.dst_port && *rule.dst_port != packet.tuple.dst_port) continue;
    const double effective = rule.threshold * scale;
    const std::size_t rule_tag = rules_.patterns.size() + r;

    switch (rule.feature) {
      case ThresholdFeature::kDistinctDstPorts: {
        PortFanout& state =
            *fanout_by_src_.try_emplace(packet.tuple.src_ip.value()).first;
        state.last_seen[packet.tuple.dst_port] = now;
        if (now < state.cooldown_until) break;
        // Prune entries older than the window, then count.
        state.last_seen.erase_if([&](const auto& kv) {
          return now - kv.second > rule.window;
        });
        observe_count(rule, static_cast<double>(state.last_seen.size()));
        if (static_cast<double>(state.last_seen.size()) >= effective) {
          state.cooldown_until = now + rule.window;
          if (!already_fired(rule_tag, packet.flow_id)) {
            out.push_back(make_detection(packet, now, rule.name,
                                         rule.confidence, rule.severity));
          }
        }
        break;
      }
      case ThresholdFeature::kSynRate: {
        if (!(packet.flags.syn && !packet.flags.ack)) break;
        RateWindow& state =
            *syn_by_dst_.try_emplace(packet.tuple.dst_ip.value()).first;
        state.events.push_back(now);
        while (!state.events.empty() &&
               now - state.events.front() > rule.window) {
          state.events.pop_front();
        }
        if (now < state.cooldown_until) break;
        observe_count(rule, static_cast<double>(state.events.size()));
        if (static_cast<double>(state.events.size()) >= effective) {
          state.cooldown_until = now + rule.window;
          if (!already_fired(rule_tag, packet.flow_id)) {
            out.push_back(make_detection(packet, now, rule.name,
                                         rule.confidence, rule.severity));
          }
        }
        break;
      }
      case ThresholdFeature::kFlowPacketRate: {
        RateWindow& state =
            *rate_by_flow_.try_emplace(packet.flow_id).first;
        state.events.push_back(now);
        while (!state.events.empty() &&
               now - state.events.front() > rule.window) {
          state.events.pop_front();
        }
        if (now < state.cooldown_until) break;
        observe_count(rule, static_cast<double>(state.events.size()));
        if (static_cast<double>(state.events.size()) >= effective) {
          state.cooldown_until = now + rule.window;
          if (!already_fired(rule_tag, packet.flow_id)) {
            out.push_back(make_detection(packet, now, rule.name,
                                         rule.confidence, rule.severity));
          }
        }
        break;
      }
    }
  }
}

void SignatureEngine::reset_state() {
  stream_state_.clear();
  stream_tail_hits_.clear();
  fanout_by_src_.clear();
  syn_by_dst_.clear();
  rate_by_flow_.clear();
  fired_.clear();
  // payload_memo_ is deliberately retained: entries are pure content
  // functions of their interned payloads, valid across windows/reboots.
}

}  // namespace idseval::ids
