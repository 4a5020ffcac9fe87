// Interned-payload scan cache (ids/scan_cache.hpp): the memo must be a
// pure optimization — detections AND pre-gate evidence byte-identical
// to a fresh computation per packet — while actually short-circuiting
// repeated payload scans. Covers the PayloadMemo container (pinning,
// capacity, telemetry), the entropy memo in the anomaly engine (against
// fresh payload_entropy calls, also past the memo's capacity), and the
// signature engine's memoized walks, which must equal the naive
// full-rescan oracle (a pattern straddling the packet boundary plus the
// same pattern fully inside the payload deduplicate exactly as the full
// rescan of tail || payload does).
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "full_rescan_oracle.hpp"
#include "ids/anomaly_engine.hpp"
#include "ids/scan_cache.hpp"
#include "ids/signature_engine.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

using PayloadRef = std::shared_ptr<const std::string>;

namespace names = telemetry::names;

std::uint64_t counter(const telemetry::Registry& registry,
                      std::string_view name) {
  const telemetry::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

PayloadRef intern(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

Packet shared_packet(std::uint64_t flow, std::uint32_t seq, PayloadRef ref,
                     std::uint16_t dst_port = netsim::ports::kHttp) {
  FiveTuple t;
  t.src_ip = Ipv4(198, 51, 100, 1);
  t.dst_ip = Ipv4(10, 0, 0, 2);
  t.src_port = 4000;
  t.dst_port = dst_port;
  Packet p = netsim::make_packet(flow * 1000 + seq, flow, SimTime::zero(),
                                 t, std::move(ref));
  p.seq = seq;
  return p;
}

using oracle::detection_keys;
using oracle::OracleReplay;
using oracle::RecordingSink;

void expect_same_detections(const std::vector<Detection>& a,
                            const std::vector<Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow_id, b[i].flow_id) << i;
    EXPECT_EQ(a[i].rule, b[i].rule) << i;
    EXPECT_EQ(a[i].when.ns(), b[i].when.ns()) << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << i;
    EXPECT_EQ(a[i].severity, b[i].severity) << i;
    EXPECT_EQ(a[i].method, b[i].method) << i;
  }
}

// --- PayloadMemo container ------------------------------------------------

TEST(ScanCacheTest, MemoStoresFindsAndCounts) {
  telemetry::Registry registry;
  telemetry::ScopedRegistry scope(&registry);
  PayloadMemo<int> memo;
  const PayloadRef p = intern("hello");
  EXPECT_EQ(memo.find(p), nullptr);  // miss
  EXPECT_EQ(counter(registry, names::kScanCacheMisses), 1u);

  const int* stored = memo.store(p, 42);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, 42);
  const int* hit = memo.find(p);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  EXPECT_EQ(counter(registry, names::kScanCacheHits), 1u);

  memo.credit_saved(p->size());
  EXPECT_EQ(counter(registry, names::kScanCacheBytesSaved), 5u);
  EXPECT_EQ(counter(registry, names::kScanCacheMisses), 1u);
}

TEST(ScanCacheTest, MemoPinsThePayloadAgainstAddressReuse) {
  // The entry must keep the string alive: if the caller drops its ref,
  // the allocator could otherwise hand the same address to a different
  // payload and a later lookup would return stale results.
  std::weak_ptr<const std::string> watch;
  {
    PayloadMemo<int> memo;
    PayloadRef p = intern("pinned");
    watch = p;
    const long before = p.use_count();
    memo.store(p, 7);
    EXPECT_EQ(p.use_count(), before + 1);
    p.reset();  // memo's pin must keep the string alive
    ASSERT_FALSE(watch.expired());
    EXPECT_EQ(*watch.lock(), "pinned");
  }
  EXPECT_TRUE(watch.expired());  // the memo released its pin
}

TEST(ScanCacheTest, MemoCapacityBoundsPopulation) {
  PayloadMemo<int> memo;
  std::vector<PayloadRef> held;
  for (std::size_t i = 0; i < PayloadMemo<int>::kCapacity; ++i) {
    held.push_back(intern(std::to_string(i)));
    ASSERT_NE(memo.store(held.back(), static_cast<int>(i)), nullptr);
  }
  const PayloadRef extra = intern("extra");
  EXPECT_EQ(memo.store(extra, -1), nullptr);  // full: walked afresh forever
  EXPECT_EQ(memo.size(), PayloadMemo<int>::kCapacity);
  EXPECT_EQ(memo.find(extra), nullptr);
  const int* first = memo.find(held.front());  // earlier entries unaffected
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 0);
}

// --- Entropy memo (anomaly engine) ----------------------------------------

/// One anomaly-engine replay, its memo counting into `registry`.
struct EntropyRun {
  telemetry::Registry registry;
  RecordingSink sink;
  std::vector<Detection> detections;
};

/// Trains on the first `learn` payloads (one packet each), then detects.
/// With `fresh`, every packet carries a new copy of its payload, so it
/// misses the memo and the engine calls payload_entropy afresh.
void run_entropy(const std::vector<PayloadRef>& payloads, std::size_t learn,
                 bool fresh, EntropyRun& run) {
  telemetry::ScopedRegistry scope(&run.registry);
  AnomalyEngine engine(AnomalyEngineOptions{});
  engine.set_evidence_sink(&run.sink);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (i == learn) engine.set_mode(AnomalyEngine::Mode::kDetecting);
    const PayloadRef ref = fresh ? intern(*payloads[i]) : payloads[i];
    const Packet p = shared_packet(1 + i % 5, static_cast<std::uint32_t>(i),
                                   ref);
    engine.process(p, SimTime::from_ms(10 * static_cast<double>(i)),
                   run.detections);
  }
}

/// Entropy feeds EWMA baselines, z-scores and winsorized learning, and
/// each detecting-mode packet's evidence carries its entropy z-score, so
/// any drift of a memoized value would show in detections or evidence.
void expect_same_entropy_outputs(const EntropyRun& memoized,
                                 const EntropyRun& fresh) {
  expect_same_detections(memoized.detections, fresh.detections);
  EXPECT_FALSE(fresh.sink.observations.empty());
  EXPECT_EQ(memoized.sink.observations, fresh.sink.observations);
  EXPECT_EQ(counter(fresh.registry, names::kScanCacheHits), 0u);
}

/// `count` random payloads; alphabet size and length vary per payload.
std::vector<PayloadRef> random_payloads(std::size_t count,
                                        std::uint64_t seed) {
  std::vector<PayloadRef> out;
  util::Rng rng(seed);
  for (std::size_t v = 0; v < count; ++v) {
    std::string s(16 + rng.index(64), '\0');
    const std::size_t alphabet = 2 + rng.index(20);
    for (char& ch : s) ch = static_cast<char>('a' + rng.index(alphabet));
    out.push_back(intern(std::move(s)));
  }
  return out;
}

TEST(ScanCacheTest, EntropyMemoIsBitIdenticalToRecomputation) {
  // A handful of interned payloads cycled many times: train, then detect.
  std::vector<PayloadRef> pool;
  util::Rng rng(99);
  for (int v = 0; v < 6; ++v) {
    std::string s(static_cast<std::size_t>(64 + 32 * v), '\0');
    for (char& ch : s) {
      ch = static_cast<char>('a' + rng.index(static_cast<std::size_t>(
                                       2 + 3 * v)));
    }
    pool.push_back(intern(std::move(s)));
  }
  std::vector<PayloadRef> payloads;
  for (std::size_t i = 0; i < 400; ++i) payloads.push_back(pool[i % 6]);

  EntropyRun memoized;
  EntropyRun fresh;
  run_entropy(payloads, 150, /*fresh=*/false, memoized);
  run_entropy(payloads, 150, /*fresh=*/true, fresh);
  expect_same_entropy_outputs(memoized, fresh);
  EXPECT_EQ(counter(memoized.registry, names::kScanCacheMisses), 6u);
  EXPECT_EQ(counter(memoized.registry, names::kScanCacheHits), 394u);
  EXPECT_GT(counter(memoized.registry, names::kScanCacheBytesSaved), 0u);
}

TEST(ScanCacheTest, EntropyMemoPastCapacityMatchesFreshWalks) {
  // More distinct payloads than the memo holds: the first kCapacity are
  // stored, the rest are refused and recomputed on every packet. Train
  // on one pass, then detect over the refused ones and some stored ones.
  const std::size_t capacity = PayloadMemo<double>::kCapacity;
  const std::vector<PayloadRef> distinct =
      random_payloads(capacity + 300, 7);
  std::vector<PayloadRef> payloads = distinct;
  for (std::size_t i = capacity; i < distinct.size(); ++i) {
    payloads.push_back(distinct[i]);
  }
  for (std::size_t i = 0; i < 200; ++i) payloads.push_back(distinct[i]);

  EntropyRun memoized;
  EntropyRun fresh;
  run_entropy(payloads, distinct.size(), /*fresh=*/false, memoized);
  run_entropy(payloads, distinct.size(), /*fresh=*/true, fresh);
  expect_same_entropy_outputs(memoized, fresh);
  EXPECT_EQ(counter(memoized.registry, names::kScanCacheMisses),
            capacity + 600);
  EXPECT_EQ(counter(memoized.registry, names::kScanCacheHits), 200u);
}

// --- Memoized walks vs the full-rescan oracle (signature engine) ---------

/// The shipped pattern rules. Threshold rules are out of the oracle's
/// scope (and never see payload bytes).
RuleSet pattern_rules() {
  RuleSet rules = standard_rule_set();
  rules.thresholds.clear();
  return rules;
}

SignatureEngineOptions signature_options(bool reassembly = true) {
  SignatureEngineOptions opt;
  opt.sensitivity = 0.9;  // admit weak rules: more hits to compare
  opt.stream_reassembly = reassembly;
  return opt;
}

void expect_replay_matches_oracle(const OracleReplay& replay) {
  EXPECT_EQ(replay.actual.per_packet, replay.reference.per_packet);
  EXPECT_EQ(replay.actual.sink.observations,
            replay.reference.sink.observations);
  EXPECT_EQ(detection_keys(replay.actual.detections),
            detection_keys(replay.reference.detections));
}

TEST(ScanCacheTest, BoundaryStraddleAndInsideHitDeduplicate) {
  // The same pattern appears twice in flight: once straddling the packet
  // boundary (only the carried automaton state can see it) and once
  // fully inside the second payload (the memoized payload walk sees it).
  // The engine must equal the full rescan exactly: one evidence
  // observation per packet that saw the id, one detection per flow.
  const std::string traversal(attack::patterns::kDirTraversal);
  const std::string head = "GET " + traversal.substr(0, 7);
  const std::string rest =
      traversal.substr(7) + " also " + traversal + " again";
  const PayloadRef head_ref = intern(head);
  const PayloadRef rest_ref = intern(rest);

  OracleReplay replay(pattern_rules(), signature_options());
  // Two flows replay the same split so the second flow hits the memo.
  for (std::uint64_t flow = 1; flow <= 2; ++flow) {
    replay.feed(shared_packet(flow, 1, head_ref), SimTime::from_ms(flow));
    replay.feed(shared_packet(flow, 2, rest_ref), SimTime::from_ms(flow));
  }
  expect_replay_matches_oracle(replay);

  // The split pattern fired per flow (dedup is per (rule, flow))...
  std::size_t traversal_detections = 0;
  for (const auto& d : replay.actual.detections) {
    if (d.rule == "WEB-IIS dir traversal") ++traversal_detections;
  }
  EXPECT_EQ(traversal_detections, 2u);
  // ...and the replayed payloads were served from the memo.
  EXPECT_GT(replay.counter(names::kScanCacheHits), 0u);
}

TEST(ScanCacheTest, CachedEngineMatchesLegacyOnRandomizedStreams) {
  // Randomized replay over shared interned payloads — pattern fragments,
  // whole patterns, benign noise — through a reassembling engine.
  // Detections and evidence must equal the full-rescan oracle's, with
  // real memo traffic.
  const std::string traversal(attack::patterns::kDirTraversal);
  std::vector<PayloadRef> pool = {
      intern("GET /index.html HTTP/1.0\r\n"),
      intern(traversal.substr(0, 9)),
      intern(traversal.substr(9)),
      intern("payload " + traversal + " embedded"),
      intern(std::string(100, 'x')),
      intern("\x90\x90\x90"),
      intern("\x90\x90\x90\x90 trailer"),
  };
  OracleReplay replay(pattern_rules(), signature_options());

  util::Rng rng(4242);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t flow = 1 + rng.index(8);
    const PayloadRef& ref = pool[rng.index(pool.size())];
    replay.feed(shared_packet(flow, static_cast<std::uint32_t>(i), ref),
                SimTime::from_ms(i));
  }
  expect_replay_matches_oracle(replay);
  EXPECT_FALSE(replay.reference.detections.empty());
  EXPECT_GT(replay.counter(names::kScanCacheHits), 100u);
  EXPECT_LE(replay.counter(names::kScanCacheMisses), pool.size());
}

TEST(ScanCacheTest, NonReassemblingCachedEngineMatchesLegacy) {
  // Without reassembly each packet's hits are its memoized payload ids.
  const std::string traversal(attack::patterns::kDirTraversal);
  const PayloadRef hit_ref = intern("GET " + traversal + " HTTP/1.0");
  const PayloadRef miss_ref = intern("GET /style.css HTTP/1.0");
  OracleReplay replay(pattern_rules(), signature_options(false));
  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    for (std::uint32_t seq = 1; seq <= 3; ++seq) {
      const PayloadRef& ref = seq == 2 ? hit_ref : miss_ref;
      replay.feed(shared_packet(flow, seq, ref), SimTime::from_ms(seq));
    }
  }
  expect_replay_matches_oracle(replay);
  // Per flow: the traversal rule and the weak /etc/passwd rule, once.
  EXPECT_EQ(replay.reference.detections.size(), 8u);
  EXPECT_EQ(replay.counter(names::kScanCacheMisses), 2u);  // one per ref
  EXPECT_EQ(replay.counter(names::kScanCacheHits), 10u);
}

}  // namespace
}  // namespace idseval::ids
