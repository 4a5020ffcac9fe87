// The streaming signature engine against the naive full-rescan oracle
// (full_rescan_oracle.hpp) on randomized split streams. Per-packet hit
// lists, detections and pre-gate evidence must be identical, whether a
// payload's walk is memoized or fresh. The streams cover payloads
// shorter than L-1, between L-1 and 64 bytes and longer than 64 (L =
// longest pattern), overlapping NOP-sled matches, a pattern longer than
// the 64 byte window (the depth clamp), a rule set of more than 64
// patterns, a narrower window, reset_state() mid-stream and more
// distinct payloads than the memo holds.
#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "full_rescan_oracle.hpp"
#include "ids/scan_cache.hpp"
#include "ids/signature_engine.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "util/strfmt.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;
using oracle::detection_keys;
using oracle::OracleReplay;

using PayloadRef = std::shared_ptr<const std::string>;

constexpr std::string_view kHits = telemetry::names::kScanCacheHits;
constexpr std::string_view kMisses = telemetry::names::kScanCacheMisses;

PayloadRef intern(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

Packet packet_for(std::uint64_t flow, std::uint32_t seq, PayloadRef ref) {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.src_port = 4000;
  t.dst_port = netsim::ports::kHttp;
  Packet p = netsim::make_packet(flow * 100000 + seq, flow, SimTime::zero(),
                                 t, std::move(ref));
  p.seq = seq;
  return p;
}

/// Pattern rules with distinct confidences and no port or protocol
/// filter: every hit yields exactly one evidence observation whose
/// strength names the pattern, so a packet's evidence spells out its hit
/// list. The weakest few stay below the gate at sensitivity 0.9 and only
/// show up as evidence.
RuleSet identifying_rules(const std::vector<std::string>& patterns) {
  RuleSet rules;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    rules.patterns.push_back(PatternRule{
        util::cat("p", i), patterns[i], std::nullopt, std::nullopt, 3,
        0.30 + 0.005 * static_cast<double>(i)});
  }
  return rules;
}

SignatureEngineOptions reassembling(std::size_t tail_bytes = 64) {
  SignatureEngineOptions opt;
  opt.sensitivity = 0.9;
  opt.stream_reassembly = true;
  opt.reassembly_tail_bytes = tail_bytes;
  return opt;
}

std::size_t longest(const std::vector<std::string>& patterns) {
  std::size_t len = 0;
  for (const auto& p : patterns) len = std::max(len, p.size());
  return len;
}

/// Random stream bytes over a small alphabet, salted with whole patterns
/// and pattern fragments so that matches straddle packet boundaries and
/// overlap often.
class StreamGen {
 public:
  StreamGen(std::vector<std::string> patterns, std::string alphabet,
            std::uint64_t seed)
      : patterns_(std::move(patterns)),
        alphabet_(std::move(alphabet)),
        longest_(longest(patterns_)),
        rng_(seed) {}

  /// A length from one of three classes: shorter than L-1, from L-1 to
  /// 64 bytes (just L-1 when L-1 > 64), and longer than 64.
  std::size_t length() {
    const std::size_t boundary = longest_ - 1;
    switch (rng_.index(3)) {
      case 0:
        return boundary > 1 ? 1 + rng_.index(boundary - 1) : 1;
      case 1:
        return boundary + rng_.index(boundary < 64 ? 64 - boundary + 1 : 1);
      default:
        return 65 + rng_.index(136);
    }
  }

  std::string payload(std::size_t len) {
    std::string s;
    while (s.size() < len) {
      const std::string& p = patterns_[rng_.index(patterns_.size())];
      switch (rng_.index(10)) {
        case 0:
          s += p;
          break;
        case 1:
          s += p.substr(0, 1 + rng_.index(p.size()));
          break;
        case 2:
          s += p.substr(rng_.index(p.size()));
          break;
        default:
          s += alphabet_[rng_.index(alphabet_.size())];
      }
    }
    s.resize(len);
    return s;
  }

  util::Rng& rng() { return rng_; }

 private:
  std::vector<std::string> patterns_;
  std::string alphabet_;
  std::size_t longest_;
  util::Rng rng_;
};

struct Scenario {
  std::vector<std::string> patterns;
  std::string alphabet;
  std::uint64_t seed = 1;
  int packets = 3000;
  std::size_t flows = 6;
  SignatureEngineOptions options = reassembling();
  /// Chance per packet, in 1/1000, of reset_state() on every engine.
  std::size_t reset_per_mille = 0;
};

/// Replays a randomized split stream: half the packets carry one of a
/// fixed set of interned payloads (memo hits), half a fresh one.
struct ScenarioRun {
  std::unique_ptr<OracleReplay> replay;
  RuleSet rules;
  std::vector<PayloadRef> payloads;  ///< Per packet.
  int resets = 0;
};

ScenarioRun run_scenario(const Scenario& sc) {
  ScenarioRun run;
  run.rules = identifying_rules(sc.patterns);
  run.replay = std::make_unique<OracleReplay>(run.rules, sc.options);
  StreamGen gen(sc.patterns, sc.alphabet, sc.seed);
  std::vector<PayloadRef> pool;
  for (int i = 0; i < 48; ++i) {
    pool.push_back(intern(gen.payload(gen.length())));
  }
  util::Rng& rng = gen.rng();
  for (int i = 0; i < sc.packets; ++i) {
    if (sc.reset_per_mille > 0 && rng.index(1000) < sc.reset_per_mille) {
      run.replay->reset_state();
      ++run.resets;
    }
    const std::uint64_t flow = 1 + rng.index(sc.flows);
    const PayloadRef ref = rng.index(2) == 0
                               ? pool[rng.index(pool.size())]
                               : intern(gen.payload(gen.length()));
    run.payloads.push_back(ref);
    run.replay->feed(packet_for(flow, static_cast<std::uint32_t>(i), ref),
                     SimTime::from_ms(i));
  }
  return run;
}

/// Pattern ids named by the evidence of each packet (identifying rules).
std::vector<std::vector<std::size_t>> hits_per_packet(
    const RuleSet& rules, const oracle::ReplaySide& side) {
  std::vector<std::vector<std::size_t>> out;
  std::size_t at = 0;
  for (const std::size_t count : side.per_packet) {
    std::vector<std::size_t> ids;
    for (std::size_t k = at; k < at + count; ++k) {
      const double strength = side.sink.observations[k].strength;
      for (std::size_t pid = 0; pid < rules.patterns.size(); ++pid) {
        if (rules.patterns[pid].confidence == strength) ids.push_back(pid);
      }
    }
    at += count;
    out.push_back(std::move(ids));
  }
  return out;
}

void expect_matches_oracle(const ScenarioRun& run) {
  const OracleReplay& r = *run.replay;
  EXPECT_EQ(r.actual.per_packet, r.reference.per_packet);
  EXPECT_EQ(r.actual.sink.observations, r.reference.sink.observations);
  EXPECT_EQ(detection_keys(r.actual.detections),
            detection_keys(r.reference.detections));
  const auto hits = hits_per_packet(run.rules, r.actual);
  ASSERT_EQ(hits.size(), r.oracle_hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i] != r.oracle_hits[i]) {
      ADD_FAILURE() << "hit list differs at packet " << i;
      break;
    }
  }
}

/// Packets whose hits include a pattern their payload alone lacks: the
/// boundary-crossing and tail re-fire cases the stream state exists for.
std::size_t stream_only_packets(const ScenarioRun& run) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < run.payloads.size(); ++i) {
    for (const std::size_t pid : run.replay->oracle_hits[i]) {
      if (run.payloads[i]->find(run.rules.patterns[pid].pattern) ==
          std::string::npos) {
        ++count;
        break;
      }
    }
  }
  return count;
}

const std::string kNop(attack::patterns::kNopSled);

std::vector<std::string> mixed_patterns() {
  return {"abab", kNop, "aab", "ba" + kNop.substr(0, 2), "c/ab", "c",
          "abcabcabcabcabcabcab"};
}

TEST(FullRescanOracleTest, MixedLengthsAndNopSledsMatchOracle) {
  Scenario sc;
  sc.patterns = mixed_patterns();
  sc.alphabet = "ab\x90" "c/";
  sc.seed = 11;
  sc.packets = 4000;
  const ScenarioRun run = run_scenario(sc);
  expect_matches_oracle(run);
  EXPECT_GT(stream_only_packets(run), 100u);
  // Overlapping NOP-sled matches were in play, and the memo was used.
  std::size_t nop_packets = 0;
  for (const auto& hits : run.replay->oracle_hits) {
    if (std::find(hits.begin(), hits.end(), 1u) != hits.end()) ++nop_packets;
  }
  EXPECT_GT(nop_packets, 100u);
  EXPECT_GT(run.replay->counter(kHits), 1000u);
}

TEST(FullRescanOracleTest, PatternLongerThanTheWindowIsClampedLikeTheOracle) {
  std::string long_pattern;
  for (int i = 0; i < 40; ++i) long_pattern += "ab";  // 80 B > 64 B window
  std::vector<std::string> patterns = mixed_patterns();
  patterns.push_back(long_pattern);
  const RuleSet rules = identifying_rules(patterns);
  const std::size_t long_id = patterns.size() - 1;

  // Split 10|70 the whole occurrence lies in tail || payload and fires;
  // split 70|10 its start has left the 64 B tail, so the oracle and the
  // engine both miss it.
  for (const auto& [cut, fires] :
       {std::pair<std::size_t, bool>{10, true}, {70, false}}) {
    OracleReplay replay(rules, reassembling());
    replay.feed(packet_for(1, 1, intern(long_pattern.substr(0, cut))),
                SimTime::from_ms(1));
    replay.feed(packet_for(1, 2, intern(long_pattern.substr(cut) + "zz")),
                SimTime::from_ms(2));
    const auto& hits = replay.oracle_hits.back();
    EXPECT_EQ(std::find(hits.begin(), hits.end(), long_id) != hits.end(),
              fires)
        << "cut " << cut;
    EXPECT_EQ(replay.actual.sink.observations,
              replay.reference.sink.observations)
        << "cut " << cut;
  }

  Scenario sc;
  sc.patterns = patterns;
  sc.alphabet = "ab";
  sc.seed = 12;
  const ScenarioRun run = run_scenario(sc);
  expect_matches_oracle(run);
  std::size_t long_hits = 0;
  for (const auto& hits : run.replay->oracle_hits) {
    if (std::find(hits.begin(), hits.end(), long_id) != hits.end()) {
      ++long_hits;
    }
  }
  EXPECT_GT(long_hits, 10u);
}

TEST(FullRescanOracleTest, MoreThanSixtyFourPatternsMatchOracle) {
  util::Rng rng(77);
  std::vector<std::string> patterns;
  while (patterns.size() < 100) {
    std::string p(2 + rng.index(9), 'a');
    for (char& ch : p) ch = static_cast<char>('a' + rng.index(3));
    if (std::find(patterns.begin(), patterns.end(), p) == patterns.end()) {
      patterns.push_back(p);
    }
  }
  Scenario sc;
  sc.patterns = patterns;
  sc.alphabet = "abc";
  sc.seed = 13;
  sc.packets = 2000;
  const ScenarioRun run = run_scenario(sc);
  expect_matches_oracle(run);
  EXPECT_GT(stream_only_packets(run), 100u);
}

TEST(FullRescanOracleTest, NarrowWindowsMatchOracle) {
  for (const std::size_t tail_bytes : {0u, 1u, 8u, 33u}) {
    Scenario sc;
    sc.patterns = mixed_patterns();
    sc.alphabet = "ab\x90" "c/";
    sc.seed = 14 + tail_bytes;
    sc.packets = 1500;
    sc.options = reassembling(tail_bytes);
    const ScenarioRun run = run_scenario(sc);
    SCOPED_TRACE("tail_bytes " + std::to_string(tail_bytes));
    expect_matches_oracle(run);
  }
}

TEST(FullRescanOracleTest, ResetStateMidStreamMatchesOracle) {
  Scenario sc;
  sc.patterns = mixed_patterns();
  sc.alphabet = "ab\x90" "c/";
  sc.seed = 15;
  sc.packets = 3000;
  sc.reset_per_mille = 5;
  const ScenarioRun run = run_scenario(sc);
  EXPECT_GT(run.resets, 3);
  expect_matches_oracle(run);
}

TEST(FullRescanOracleTest, NonReassemblingEngineMatchesOracle) {
  Scenario sc;
  sc.patterns = mixed_patterns();
  sc.alphabet = "ab\x90" "c/";
  sc.seed = 16;
  sc.packets = 1500;
  sc.options.stream_reassembly = false;
  const ScenarioRun run = run_scenario(sc);
  expect_matches_oracle(run);
  EXPECT_EQ(stream_only_packets(run), 0u);
}

TEST(FullRescanOracleTest, MemoAtCapacityMatchesOracle) {
  // Feed more distinct payloads than the memo holds, then keep streaming
  // payloads it can no longer store: those take a fresh walk on every
  // packet and must still agree with the oracle, boundary state included.
  const std::vector<std::string> patterns = mixed_patterns();
  const RuleSet rules = identifying_rules(patterns);
  OracleReplay replay(rules, reassembling());
  StreamGen gen(patterns, "ab\x90" "c/", 17);
  const std::size_t capacity = PayloadMemo<int>::kCapacity;
  std::vector<PayloadRef> stored;
  std::vector<PayloadRef> overflow;
  for (std::size_t i = 0; i < capacity + 200; ++i) {
    (i < capacity ? stored : overflow)
        .push_back(intern(gen.payload(1 + gen.rng().index(40))));
  }
  std::uint32_t seq = 0;
  const auto feed = [&](const PayloadRef& ref) {
    replay.feed(packet_for(1 + gen.rng().index(5), seq, ref),
                SimTime::from_ms(seq));
    ++seq;
  };
  for (const PayloadRef& ref : stored) feed(ref);
  for (const PayloadRef& ref : overflow) feed(ref);
  for (const PayloadRef& ref : overflow) feed(ref);  // still not stored
  for (std::size_t i = 0; i < 200; ++i) feed(stored[i]);

  EXPECT_EQ(replay.counter(kMisses), capacity + 400);
  EXPECT_EQ(replay.counter(kHits), 200u);
  EXPECT_EQ(replay.actual.per_packet, replay.reference.per_packet);
  EXPECT_EQ(replay.actual.sink.observations,
            replay.reference.sink.observations);
  EXPECT_EQ(detection_keys(replay.actual.detections),
            detection_keys(replay.reference.detections));
}

}  // namespace
}  // namespace idseval::ids
