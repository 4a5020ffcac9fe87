#include "traffic/payload_pool.hpp"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/patterns.hpp"
#include "traffic/payload.hpp"
#include "util/strfmt.hpp"

namespace idseval::traffic {
namespace {

namespace patterns = idseval::attack::patterns;

TEST(PayloadPoolTest, BucketLenQuantizesAndClamps) {
  // Tiny lengths clamp to kMinLen and land in the first granule.
  EXPECT_EQ(PayloadPool::bucket_len(0),
            PayloadPool::bucket_len(PayloadPool::kMinLen));
  EXPECT_EQ(PayloadPool::bucket_len(1), PayloadPool::bucket_len(0));
  EXPECT_EQ(PayloadPool::bucket_len(100000), PayloadPool::kMaxLen);
  // Lengths round to the NEAREST granule boundary (zero-mean quantization
  // error), so everything within half a granule of granule*k shares one
  // bucket.
  const std::size_t g = PayloadPool::kLengthGranularity;
  const std::size_t b1 = PayloadPool::bucket_len(200);
  EXPECT_EQ(b1 % g, 0u);
  EXPECT_EQ(b1, PayloadPool::bucket_len(b1));
  EXPECT_EQ(b1, PayloadPool::bucket_len(b1 - g / 2));
  EXPECT_EQ(b1, PayloadPool::bucket_len(b1 + g / 2 - 1));
  EXPECT_LT(b1, PayloadPool::bucket_len(b1 + g / 2));
  EXPECT_GT(b1, PayloadPool::bucket_len(b1 - g / 2 - 1));
}

TEST(PayloadPoolTest, BackgroundHandoutsMatchKindAndBucket) {
  PayloadPool pool(123, /*variants=*/4);
  const PayloadPool::Ref p = pool.background(PayloadKind::kHttpRequest, 300);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->empty());
  // HTTP-kind payloads still look like the synthesizer's HTTP content.
  EXPECT_NE(p->find("HTTP"), std::string::npos);
}

TEST(PayloadPoolTest, VariantCycleIsDeterministic) {
  PayloadPool a(999, /*variants=*/4);
  PayloadPool b(999, /*variants=*/4);
  for (int i = 0; i < 10; ++i) {
    const PayloadPool::Ref pa = a.background(PayloadKind::kSmtp, 500);
    const PayloadPool::Ref pb = b.background(PayloadKind::kSmtp, 500);
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(pb, nullptr);
    EXPECT_EQ(*pa, *pb) << "draw " << i;
  }
}

TEST(PayloadPoolTest, CycleRepeatsAfterVariantsDraws) {
  PayloadPool pool(7, /*variants=*/3);
  std::vector<std::string> first_cycle;
  for (int i = 0; i < 3; ++i) {
    first_cycle.push_back(*pool.background(PayloadKind::kRandom, 200));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(*pool.background(PayloadKind::kRandom, 200), first_cycle[i]);
  }
  // After the first cycle everything is a cache hit.
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.hits(), 3u);
  EXPECT_EQ(pool.interned_strings(), 3u);
}

TEST(PayloadPoolTest, DifferentSeedsGiveDifferentContent) {
  PayloadPool a(1, /*variants=*/2);
  PayloadPool b(2, /*variants=*/2);
  EXPECT_NE(*a.background(PayloadKind::kRandom, 400),
            *b.background(PayloadKind::kRandom, 400));
}

TEST(PayloadPoolTest, AttackFamilyPreservesSignatureBytes) {
  PayloadPool pool(42, /*variants=*/8);
  // Every variant a signature-bearing builder produces must carry the
  // pattern — this is the "pattern-rule hits keep firing" guarantee.
  for (int i = 0; i < 20; ++i) {
    const PayloadPool::Ref p = pool.attack("web.exploit", [](util::Rng& rng) {
      return util::cat("GET ", patterns::kDirTraversal, " HTTP/1.0 x=",
                       rng.uniform_u64(0, 1000), "\r\n\r\n");
    });
    ASSERT_NE(p, nullptr);
    EXPECT_NE(p->find(patterns::kDirTraversal), std::string::npos);
  }
  // 8 variants built once each, then cycled.
  EXPECT_EQ(pool.misses(), 8u);
  EXPECT_EQ(pool.hits(), 12u);
}

TEST(PayloadPoolTest, AttackFamiliesAreIndependent) {
  PayloadPool pool(5, /*variants=*/2);
  const PayloadPool::Ref a =
      pool.attack("fam.a", [](util::Rng&) { return std::string("AAAA"); });
  const PayloadPool::Ref b =
      pool.attack("fam.b", [](util::Rng&) { return std::string("BBBB"); });
  EXPECT_EQ(*a, "AAAA");
  EXPECT_EQ(*b, "BBBB");
}

TEST(PayloadPoolTest, MultiFamilyKeepsPiecesCoherent) {
  PayloadPool pool(77, /*variants=*/4);
  auto build = [](util::Rng& rng) {
    const std::string whole =
        util::cat("prefix-", rng.uniform_u64(0, 1000000), "-suffix");
    return std::vector<std::string>{whole.substr(0, whole.size() / 2),
                                    whole.substr(whole.size() / 2)};
  };
  for (int i = 0; i < 8; ++i) {
    const PayloadPool::Refs& pieces = pool.attack_family("frags", build);
    ASSERT_EQ(pieces.size(), 2u);
    const std::string joined = *pieces[0] + *pieces[1];
    EXPECT_EQ(joined.substr(0, 7), "prefix-");
    EXPECT_EQ(joined.substr(joined.size() - 7), "-suffix");
  }
}

TEST(PayloadPoolTest, MultiFamilyCycleIsDeterministic) {
  auto build = [](util::Rng& rng) {
    return std::vector<std::string>{
        util::cat("x", rng.uniform_u64(0, 1 << 30)),
        util::cat("y", rng.uniform_u64(0, 1 << 30))};
  };
  PayloadPool a(31337, /*variants=*/3);
  PayloadPool b(31337, /*variants=*/3);
  for (int i = 0; i < 7; ++i) {
    const PayloadPool::Refs& pa = a.attack_family("t", build);
    const PayloadPool::Refs pb_copy = b.attack_family("t", build);
    ASSERT_EQ(pa.size(), pb_copy.size());
    for (std::size_t j = 0; j < pa.size(); ++j) {
      EXPECT_EQ(*pa[j], *pb_copy[j]);
    }
  }
}

TEST(PayloadPoolTest, GrowthDoublesAfterFullCycleUpToLimit) {
  PayloadPool pool(21, /*variants=*/2);
  pool.enable_growth(PayloadKind::kCanFrame, 8);
  std::set<std::string> distinct;
  // 2 base slots, doubled to 4 after the first full cycle, then to 8,
  // then the cycle is fixed: 16 draws see exactly 8 distinct payloads.
  for (int i = 0; i < 16; ++i) {
    distinct.insert(*pool.background(PayloadKind::kCanFrame, 40));
  }
  EXPECT_EQ(distinct.size(), 8u);
  EXPECT_EQ(pool.grown_variants(), 6u);  // 2→4 adds 2, 4→8 adds 4
  // The cycle stays capped: more draws mint nothing new.
  for (int i = 0; i < 16; ++i) {
    distinct.insert(*pool.background(PayloadKind::kCanFrame, 40));
  }
  EXPECT_EQ(distinct.size(), 8u);
  EXPECT_EQ(pool.grown_variants(), 6u);
}

TEST(PayloadPoolTest, GrownContentIsIndependentOfGrowthHistory) {
  // Slot content depends only on (pool seed, family, slot index), so a
  // pool that grew 2→8 hands out exactly the payloads a fixed 8-variant
  // pool would — growth changes the universe's size, never its content.
  PayloadPool grown(55, /*variants=*/2);
  grown.enable_growth(PayloadKind::kIcsControl, 8);
  PayloadPool fixed(55, /*variants=*/8);
  std::set<std::string> grown_set;
  std::set<std::string> fixed_set;
  for (int i = 0; i < 24; ++i) {
    grown_set.insert(*grown.background(PayloadKind::kIcsControl, 64));
    fixed_set.insert(*fixed.background(PayloadKind::kIcsControl, 64));
  }
  EXPECT_EQ(grown_set, fixed_set);
}

TEST(PayloadPoolTest, KindsWithoutGrowthPolicyKeepTheFixedCycle) {
  PayloadPool pool(9, /*variants=*/3);
  pool.enable_growth(PayloadKind::kCanFrame, 8);
  std::set<std::string> distinct;
  for (int i = 0; i < 12; ++i) {
    distinct.insert(*pool.background(PayloadKind::kHttpRequest, 300));
  }
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(pool.grown_variants(), 0u);
}

TEST(PayloadPoolTest, GrowthBelowBaseCycleIsIgnored) {
  PayloadPool pool(13, /*variants=*/4);
  pool.enable_growth(PayloadKind::kCanFrame, 4);  // not > base: no-op
  std::set<std::string> distinct;
  for (int i = 0; i < 12; ++i) {
    distinct.insert(*pool.background(PayloadKind::kCanFrame, 40));
  }
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(PayloadPoolTest, SteadyStateHandsOutSharedReferences) {
  PayloadPool pool(11, /*variants=*/2);
  const PayloadPool::Ref first = pool.background(PayloadKind::kTelnet, 100);
  pool.background(PayloadKind::kTelnet, 100);  // variant 1
  const PayloadPool::Ref again = pool.background(PayloadKind::kTelnet, 100);
  // Cycle wrapped: same object, not an equal copy.
  EXPECT_EQ(first.get(), again.get());
  EXPECT_GT(pool.interned_bytes(), 0u);
}

}  // namespace
}  // namespace idseval::traffic
