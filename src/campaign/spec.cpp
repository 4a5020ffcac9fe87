#include "campaign/spec.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "attack/killchain.hpp"
#include "core/requirement.hpp"
#include "traffic/profile.hpp"
#include "util/rng.hpp"

namespace idseval::campaign {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::istringstream in(value);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

products::ProductId product_by_name(const std::string& name) {
  for (const auto& model : products::product_catalog()) {
    if (model.name == name) return model.id;
  }
  throw std::invalid_argument("campaign spec: unknown product: " + name);
}

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

/// Doubles in the canonical form must survive a parse/serialize cycle
/// exactly; %.17g round-trips every finite double.
std::string fmt_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

CampaignSpec CampaignSpec::defaults() {
  CampaignSpec spec;
  for (const auto& model : products::product_catalog()) {
    spec.products.push_back(model.id);
  }
  spec.profiles = {"rt_cluster", "ecommerce"};
  spec.sensitivities = {0.5};
  return spec;
}

CampaignSpec CampaignSpec::parse(std::string_view text) {
  return from_config(util::Config::parse(text));
}

CampaignSpec CampaignSpec::from_config(const util::Config& config) {
  const CampaignSpec base = defaults();
  CampaignSpec spec;
  spec.name = config.get_or("name", base.name);

  const std::string products_value =
      trim(config.get_or("products", "all"));
  if (products_value == "all") {
    spec.products = base.products;
  } else {
    for (const auto& name : split_list(products_value)) {
      spec.products.push_back(product_by_name(name));
    }
  }

  for (const auto& name :
       split_list(config.get_or("profiles", join(base.profiles)))) {
    spec.profiles.push_back(name);
  }

  for (const auto& value :
       split_list(config.get_or("sensitivities", "0.5"))) {
    try {
      spec.sensitivities.push_back(std::stod(value));
    } catch (const std::exception&) {
      throw std::invalid_argument(
          "campaign spec: bad sensitivity: " + value);
    }
  }

  spec.replicates = static_cast<std::size_t>(
      config.get_int_or("replicates", static_cast<std::int64_t>(
                                          base.replicates)));
  spec.base_seed = static_cast<std::uint64_t>(
      config.get_int_or("seed", static_cast<std::int64_t>(base.base_seed)));
  spec.weights = config.get_or("weights", base.weights);
  spec.attacks_per_kind = static_cast<std::size_t>(config.get_int_or(
      "attacks_per_kind", static_cast<std::int64_t>(base.attacks_per_kind)));
  spec.load_metrics = config.get_bool_or("load_metrics", base.load_metrics);
  spec.kill_chain = config.get_or("kill_chain", base.kill_chain);
  spec.internal_hosts = static_cast<std::size_t>(config.get_int_or(
      "internal_hosts", static_cast<std::int64_t>(base.internal_hosts)));
  spec.external_hosts = static_cast<std::size_t>(config.get_int_or(
      "external_hosts", static_cast<std::int64_t>(base.external_hosts)));
  spec.warmup_sec = config.get_double_or("warmup_sec", base.warmup_sec);
  spec.measure_sec = config.get_double_or("measure_sec", base.measure_sec);
  spec.shards = static_cast<std::size_t>(
      config.get_int_or("shards", static_cast<std::int64_t>(base.shards)));

  spec.validate();
  return spec;
}

util::Config CampaignSpec::to_config() const {
  util::Config config;
  config.set("name", name);
  {
    std::vector<std::string> names;
    names.reserve(products.size());
    for (const auto id : products) {
      names.push_back(products::product(id).name);
    }
    config.set("products", join(names));
  }
  config.set("profiles", join(profiles));
  {
    std::vector<std::string> values;
    values.reserve(sensitivities.size());
    for (const double s : sensitivities) values.push_back(fmt_exact(s));
    config.set("sensitivities", join(values));
  }
  config.set("replicates", std::to_string(replicates));
  config.set("seed", std::to_string(base_seed));
  config.set("weights", weights);
  config.set("attacks_per_kind", std::to_string(attacks_per_kind));
  config.set("load_metrics", load_metrics ? "true" : "false");
  // Only serialized when set so pre-kill-chain stores keep their
  // fingerprint and stay resumable.
  if (!kill_chain.empty()) config.set("kill_chain", kill_chain);
  config.set("internal_hosts", std::to_string(internal_hosts));
  config.set("external_hosts", std::to_string(external_hosts));
  config.set("warmup_sec", fmt_exact(warmup_sec));
  config.set("measure_sec", fmt_exact(measure_sec));
  return config;
}

std::string CampaignSpec::to_string() const { return to_config().to_string(); }

std::uint64_t CampaignSpec::fingerprint() const {
  return util::hash64(to_string());
}

core::WeightSet CampaignSpec::weight_set() const {
  if (weights == "realtime") {
    return core::realtime_distributed_requirements().derive_weights();
  }
  if (weights == "ecommerce") {
    return core::ecommerce_requirements().derive_weights();
  }
  throw std::invalid_argument(
      "campaign spec: weights must be realtime or ecommerce, got: " +
      weights);
}

void CampaignSpec::validate() const {
  if (products.empty()) {
    throw std::invalid_argument("campaign spec: no products");
  }
  if (profiles.empty()) {
    throw std::invalid_argument("campaign spec: no profiles");
  }
  if (sensitivities.empty()) {
    throw std::invalid_argument("campaign spec: no sensitivities");
  }
  for (const double s : sensitivities) {
    if (!(s >= 0.0 && s <= 1.0)) {
      throw std::invalid_argument(
          "campaign spec: sensitivity out of [0,1]: " + fmt_exact(s));
    }
  }
  if (replicates == 0) {
    throw std::invalid_argument("campaign spec: replicates must be >= 1");
  }
  if (internal_hosts == 0 || external_hosts == 0) {
    throw std::invalid_argument("campaign spec: need at least one host "
                                "on each side of the WAN link");
  }
  if (warmup_sec < 0.0 || measure_sec <= 0.0) {
    throw std::invalid_argument("campaign spec: bad testbed window");
  }
  if (shards != 1) {
    throw std::invalid_argument(
        "campaign spec: sharded simulation was removed; results are "
        "identical at shards = 1");
  }
  // Fail fast on typos rather than after hours of cells.
  for (const auto& name : profiles) {
    (void)traffic::profile_by_name(name);
  }
  if (!kill_chain.empty()) {
    bool known = false;
    for (const std::string& preset : attack::KillChain::preset_names()) {
      if (kill_chain == preset) known = true;
    }
    if (!known) {
      throw std::invalid_argument(
          "campaign spec: unknown kill_chain preset: " + kill_chain);
    }
  }
  (void)weight_set();
}

}  // namespace idseval::campaign
