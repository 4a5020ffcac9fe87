// Campaign specification: the cross-product of products × traffic
// profiles × sensitivities × seed replicates one evaluation campaign
// covers, plus the per-cell evaluation options. The paper's methodology
// is meant to be rerun per environment and per requirement set (§3.3);
// a CampaignSpec is the reproducible description of one such rerun —
// expressible as a key=value config file so a campaign can be launched,
// resumed, and audited from a single piece of text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scorecard.hpp"
#include "products/catalog.hpp"
#include "util/config.hpp"

namespace idseval::campaign {

struct CampaignSpec {
  std::string name = "campaign";

  // Grid axes. Empty products/profiles/sensitivities are invalid; use
  // defaults() or the config defaults for the usual full grid.
  std::vector<products::ProductId> products;
  std::vector<std::string> profiles;       ///< traffic profile names
  std::vector<double> sensitivities;
  std::size_t replicates = 1;              ///< seed replicates per point

  /// Campaign-level seed; every cell derives its own deterministic seed
  /// from this via util::derive_seed(base_seed, cell index).
  std::uint64_t base_seed = 42;

  // Per-cell evaluation options.
  std::string weights = "realtime";        ///< realtime | ecommerce
  std::size_t attacks_per_kind = 3;
  bool load_metrics = false;
  /// Kill-chain preset run per cell instead of the flat mixed scenario
  /// (attack::KillChain::preset names). Empty keeps the legacy scenario —
  /// and is omitted from the serialization, so pre-kill-chain stores keep
  /// their fingerprint and stay resumable.
  std::string kill_chain;

  // Testbed environment knobs.
  std::size_t internal_hosts = 8;
  std::size_t external_hosts = 4;
  double warmup_sec = 20.0;
  double measure_sec = 60.0;
  /// Must be 1 (TestbedConfig::shards). validate() refuses any other
  /// value, so specs and stores written for the removed sharded engine
  /// fail cleanly; never serialized, so fingerprints are unaffected.
  std::size_t shards = 1;

  /// Full grid over the product catalog on the canonical profiles.
  static CampaignSpec defaults();

  /// Builds a spec from key=value text (util::Config syntax). Missing
  /// keys take the defaults above; `products = all` selects the whole
  /// catalog. Throws std::invalid_argument on unknown products/profiles,
  /// empty axes, or out-of-range values.
  static CampaignSpec parse(std::string_view text);
  static CampaignSpec from_config(const util::Config& config);

  /// Canonical serialization; parse(to_string()) reproduces the spec.
  util::Config to_config() const;
  std::string to_string() const;

  /// Stable hash of the canonical serialization — stored in the result
  /// manifest so a resume against a different spec is refused instead of
  /// silently mixing grids.
  std::uint64_t fingerprint() const;

  std::size_t cell_count() const noexcept {
    return products.size() * profiles.size() * sensitivities.size() *
           replicates;
  }

  /// The metric weighting the campaign scores cells under.
  core::WeightSet weight_set() const;

  /// Throws std::invalid_argument when the spec cannot be executed.
  void validate() const;
};

}  // namespace idseval::campaign
