#include "campaign/spec.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace idseval::campaign {
namespace {

TEST(CampaignSpecTest, DefaultsCoverWholeCatalog) {
  const CampaignSpec spec = CampaignSpec::defaults();
  EXPECT_EQ(spec.products.size(), products::product_catalog().size());
  EXPECT_FALSE(spec.profiles.empty());
  EXPECT_EQ(spec.cell_count(),
            spec.products.size() * spec.profiles.size() *
                spec.sensitivities.size() * spec.replicates);
}

TEST(CampaignSpecTest, ParsesFullConfig) {
  const CampaignSpec spec = CampaignSpec::parse(R"(
    name = nightly
    products = GuardSecure, FlowHunt
    profiles = rt_cluster, office
    sensitivities = 0.25, 0.5, 0.75
    replicates = 5
    seed = 1234
    weights = ecommerce
    attacks_per_kind = 2
    load_metrics = true
    internal_hosts = 6
    external_hosts = 3
    warmup_sec = 5
    measure_sec = 15
  )");
  EXPECT_EQ(spec.name, "nightly");
  ASSERT_EQ(spec.products.size(), 2u);
  EXPECT_EQ(spec.products[0], products::ProductId::kGuardSecure);
  EXPECT_EQ(spec.products[1], products::ProductId::kFlowHunt);
  EXPECT_EQ(spec.profiles, (std::vector<std::string>{"rt_cluster",
                                                     "office"}));
  ASSERT_EQ(spec.sensitivities.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.sensitivities[1], 0.5);
  EXPECT_EQ(spec.replicates, 5u);
  EXPECT_EQ(spec.base_seed, 1234u);
  EXPECT_EQ(spec.weights, "ecommerce");
  EXPECT_EQ(spec.attacks_per_kind, 2u);
  EXPECT_TRUE(spec.load_metrics);
  EXPECT_EQ(spec.internal_hosts, 6u);
  EXPECT_EQ(spec.external_hosts, 3u);
  EXPECT_DOUBLE_EQ(spec.warmup_sec, 5.0);
  EXPECT_DOUBLE_EQ(spec.measure_sec, 15.0);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 3u * 5u);
}

TEST(CampaignSpecTest, ProductsAllSelectsCatalog) {
  const CampaignSpec spec = CampaignSpec::parse("products = all\n");
  EXPECT_EQ(spec.products.size(), products::product_catalog().size());
}

TEST(CampaignSpecTest, MissingKeysTakeDefaults) {
  const CampaignSpec spec = CampaignSpec::parse("name = minimal\n");
  const CampaignSpec base = CampaignSpec::defaults();
  EXPECT_EQ(spec.products, base.products);
  EXPECT_EQ(spec.replicates, base.replicates);
  EXPECT_EQ(spec.base_seed, base.base_seed);
  EXPECT_EQ(spec.weights, base.weights);
}

TEST(CampaignSpecTest, CanonicalRoundTrip) {
  CampaignSpec spec = CampaignSpec::defaults();
  spec.name = "rt";
  spec.sensitivities = {0.1, 0.9};
  spec.replicates = 3;
  spec.base_seed = 77;
  spec.weights = "ecommerce";
  const CampaignSpec copy = CampaignSpec::parse(spec.to_string());
  EXPECT_EQ(copy.to_string(), spec.to_string());
  EXPECT_EQ(copy.fingerprint(), spec.fingerprint());
  EXPECT_EQ(copy.cell_count(), spec.cell_count());
}

TEST(CampaignSpecTest, FingerprintSeesEveryAxis) {
  const CampaignSpec base = CampaignSpec::defaults();
  CampaignSpec changed = base;
  changed.base_seed += 1;
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.replicates += 1;
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
  changed = base;
  changed.sensitivities.push_back(0.9);
  EXPECT_NE(base.fingerprint(), changed.fingerprint());
}

TEST(CampaignSpecTest, RejectsBadInput) {
  EXPECT_THROW(CampaignSpec::parse("products = NoSuchIDS\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("profiles = mars_base\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("sensitivities = 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("sensitivities = banana\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("replicates = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("weights = metric\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("measure_sec = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse("internal_hosts = 0\n"),
               std::invalid_argument);
}

TEST(CampaignSpecTest, RefusesShardsOtherThanOne) {
  // The sharded engine is gone: a spec (or a resumed store's spec) that
  // still asks for it fails with a clear message, never silently.
  try {
    (void)CampaignSpec::parse("shards = 2\n");
    FAIL() << "shards = 2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "sharded simulation was removed; results are identical "
                  "at shards = 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(CampaignSpec::parse("shards = 0\n"), std::invalid_argument);
  const CampaignSpec one = CampaignSpec::parse("shards = 1\n");
  EXPECT_EQ(one.shards, 1u);
  // Never serialized: naming the default leaves the fingerprint alone.
  EXPECT_EQ(one.to_string().find("shards"), std::string::npos);
  EXPECT_EQ(one.fingerprint(), CampaignSpec::parse("").fingerprint());
}

TEST(CampaignSpecTest, WeightSetMatchesRequirementProfiles) {
  CampaignSpec spec = CampaignSpec::defaults();
  spec.weights = "realtime";
  EXPECT_FALSE(spec.weight_set().weights().empty());
  spec.weights = "ecommerce";
  EXPECT_FALSE(spec.weight_set().weights().empty());
}

}  // namespace
}  // namespace idseval::campaign
