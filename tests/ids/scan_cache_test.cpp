// Interned-payload scan cache (ids/scan_cache.hpp): the memo must be a
// pure optimization — detections AND pre-gate evidence byte-identical
// with the cache on or off — while actually short-circuiting repeated
// payload scans. Covers the PayloadMemo container (pinning, capacity),
// the entropy memo in the anomaly engine, and the signature engine's
// memoized walks, which with the memo on and off must equal the naive
// full-rescan oracle (a pattern straddling the packet boundary plus the
// same pattern fully inside the payload deduplicate exactly as the full
// rescan of tail || payload does).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "full_rescan_oracle.hpp"
#include "ids/anomaly_engine.hpp"
#include "ids/scan_cache.hpp"
#include "ids/signature_engine.hpp"
#include "util/rng.hpp"

namespace idseval::ids {
namespace {

using netsim::FiveTuple;
using netsim::Ipv4;
using netsim::Packet;
using netsim::SimTime;

using PayloadRef = std::shared_ptr<const std::string>;

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
  PayloadMemo<int> memo;
  const PayloadRef p = intern("hello");
  EXPECT_EQ(memo.find(p), nullptr);  // miss
  EXPECT_EQ(memo.stats().misses, 1u);

  const int* stored = memo.store(p, 42);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, 42);
  const int* hit = memo.find(p);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 42);
  EXPECT_EQ(memo.stats().hits, 1u);

  memo.credit_saved(p->size());
  EXPECT_EQ(memo.stats().bytes_saved, 5u);
  EXPECT_DOUBLE_EQ(memo.stats().hit_ratio(), 0.5);
}

TEST(ScanCacheTest, MemoPinsThePayloadAgainstAddressReuse) {
  // The entry must keep the string alive: if the caller drops its ref,
  // the allocator could otherwise hand the same address to a different
  // payload and a later lookup would return stale results.
  PayloadMemo<int> memo;
  PayloadRef p = intern("pinned");
  const long before = p.use_count();
  memo.store(p, 7);
  EXPECT_EQ(p.use_count(), before + 1);
  const std::string* raw = p.get();
  p.reset();  // memo's pin must keep the string alive
  EXPECT_EQ(*raw, "pinned");
  memo.clear();  // releases the pin
  EXPECT_EQ(memo.size(), 0u);
}

TEST(ScanCacheTest, MemoCapacityBoundsPopulation) {
  PayloadMemo<int> memo(/*capacity=*/2);
  const PayloadRef a = intern("a");
  const PayloadRef b = intern("b");
  const PayloadRef c = intern("c");
  EXPECT_NE(memo.store(a, 1), nullptr);
  EXPECT_NE(memo.store(b, 2), nullptr);
  EXPECT_EQ(memo.store(c, 3), nullptr);  // full: scanned uncached forever
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(c), nullptr);
  ASSERT_NE(memo.find(a), nullptr);  // earlier entries unaffected
}

TEST(ScanCacheTest, ReserveCapacityRaisesButNeverLowers) {
  // Adaptive PayloadPool growth raises the memo ceiling by its headroom;
  // the raise must be monotonic — entries are already pinned, so a lower
  // request is refused rather than evicting.
  PayloadMemo<int> memo(/*capacity=*/2);
  EXPECT_EQ(memo.capacity(), 2u);
  memo.reserve_capacity(1);
  EXPECT_EQ(memo.capacity(), 2u);
  memo.reserve_capacity(4);
  EXPECT_EQ(memo.capacity(), 4u);

  const PayloadRef a = intern("ra");
  const PayloadRef b = intern("rb");
  const PayloadRef c = intern("rc");
  const PayloadRef d = intern("rd");
  const PayloadRef e = intern("re");
  EXPECT_NE(memo.store(a, 1), nullptr);
  EXPECT_NE(memo.store(b, 2), nullptr);
  // Beyond the original ceiling but inside the reserved one.
  EXPECT_NE(memo.store(c, 3), nullptr);
  EXPECT_NE(memo.store(d, 4), nullptr);
  EXPECT_EQ(memo.store(e, 5), nullptr);  // reserved ceiling still bounds
  EXPECT_EQ(memo.size(), 4u);
}

// --- Entropy memo (anomaly engine) ----------------------------------------

TEST(ScanCacheTest, EntropyMemoIsBitIdenticalToRecomputation) {
  AnomalyEngineOptions cached_opt;
  AnomalyEngineOptions legacy_opt;
  legacy_opt.scan_cache = false;
  AnomalyEngine cached(cached_opt);
  AnomalyEngine legacy(legacy_opt);
  RecordingSink cached_sink;
  RecordingSink legacy_sink;
  cached.set_evidence_sink(&cached_sink);
  legacy.set_evidence_sink(&legacy_sink);

  // A handful of interned payloads cycled many times: train both models,
  // then detect. Entropy feeds EWMA baselines, z-scores, and winsorized
  // learning, so any cached-value drift would diverge the outputs.
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
  std::vector<Detection> cached_out;
  std::vector<Detection> legacy_out;
  for (int i = 0; i < 400; ++i) {
    if (i == 150) {
      cached.set_mode(AnomalyEngine::Mode::kDetecting);
      legacy.set_mode(AnomalyEngine::Mode::kDetecting);
    }
    const Packet p =
        shared_packet(1 + static_cast<std::uint64_t>(i % 5),
                      static_cast<std::uint32_t>(i),
                      pool[static_cast<std::size_t>(i) % 6]);
    const SimTime now = SimTime::from_ms(10 * i);
    cached.process(p, now, cached_out);
    legacy.process(p, now, legacy_out);
  }
  expect_same_detections(cached_out, legacy_out);
  EXPECT_EQ(cached_sink.observations, legacy_sink.observations);
  EXPECT_GT(cached.scan_cache_stats().hits, 0u);
  EXPECT_GT(cached.scan_cache_stats().bytes_saved, 0u);
  EXPECT_EQ(legacy.scan_cache_stats().hits + legacy.scan_cache_stats().misses,
            0u);
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
  for (const oracle::ReplaySide* side : {&replay.cached, &replay.uncached}) {
    const char* which = side == &replay.cached ? "memo on" : "memo off";
    EXPECT_EQ(side->per_packet, replay.reference.per_packet) << which;
    EXPECT_EQ(side->sink.observations, replay.reference.sink.observations)
        << which;
    EXPECT_EQ(detection_keys(side->detections),
              detection_keys(replay.reference.detections))
        << which;
  }
}

TEST(ScanCacheTest, BoundaryStraddleAndInsideHitDeduplicate) {
  // The same pattern appears twice in flight: once straddling the packet
  // boundary (only the carried automaton state can see it) and once
  // fully inside the second payload (the memoized payload walk sees it).
  // Both engines must equal the full rescan exactly: one evidence
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
  for (const auto& d : replay.cached.detections) {
    if (d.rule == "WEB-IIS dir traversal") ++traversal_detections;
  }
  EXPECT_EQ(traversal_detections, 2u);
  // ...and the replayed payloads were served from the memo.
  EXPECT_GT(replay.cached_engine.scan_cache_stats().hits, 0u);
}

TEST(ScanCacheTest, CachedEngineMatchesLegacyOnRandomizedStreams) {
  // Randomized replay over shared interned payloads — pattern fragments,
  // whole patterns, benign noise — through reassembling engines with the
  // memo on and off. Detections and evidence must equal the full-rescan
  // oracle's, with real memo traffic on the memoizing side.
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
  EXPECT_GT(replay.cached_engine.scan_cache_stats().hits, 100u);
  EXPECT_LE(replay.cached_engine.scan_cache_stats().misses, pool.size());
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
  const ScanCacheStats& stats = replay.cached_engine.scan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);  // one per distinct ref
  EXPECT_EQ(stats.hits, 10u);
  const ScanCacheStats& off = replay.uncached_engine.scan_cache_stats();
  EXPECT_EQ(off.hits + off.misses, 0u);  // memo off never consults it
}

}  // namespace
}  // namespace idseval::ids
