// Per-simulation payload interning. Synthesizing a fresh payload string
// for every packet was the traffic generator's dominant allocation cost:
// each packet paid for string building plus a shared_ptr control block.
// The pool interns payloads by content family and hands out
// shared_ptr<const std::string> references from a deterministic, seeded
// variant cycle — after the first cycle through a family, packet emission
// performs no allocation beyond a refcount bump.
//
// Realism is preserved the way the paper's §4 lesson demands: pooled
// payloads are produced by the same synthesizers (protocol-shaped
// content, signature-bearing attack bytes), only their diversity is
// bounded to `variants` realizations per family. Determinism: content
// depends solely on (pool seed, family, variant index), and the cycle
// position advances in simulation order, so a fixed-seed run replays
// byte-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/registry.hpp"
#include "traffic/payload.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace idseval::traffic {

class PayloadPool {
 public:
  using Ref = std::shared_ptr<const std::string>;
  using Refs = std::vector<Ref>;
  /// Builds one variant of an attack payload; all randomness must come
  /// from the provided rng so the variant is a pure function of its seed.
  using Builder = std::function<std::string(util::Rng&)>;
  using MultiBuilder = std::function<std::vector<std::string>(util::Rng&)>;

  explicit PayloadPool(std::uint64_t seed, std::size_t variants = 32);

  /// Background-traffic payload of the given kind, interned by
  /// (kind, length bucket). Lengths are quantized to kLengthGranularity
  /// so nearby jittered sizes share cache entries.
  Ref background(PayloadKind kind, std::size_t target_len);

  /// Attack payload interned by call-site family name. `build` runs only
  /// on the first touch of each (family, variant); afterwards the cached
  /// string is cycled. Signature bytes placed by the builder are
  /// therefore present in every handout.
  Ref attack(std::string_view family, const Builder& build);

  /// Multi-packet attack payloads whose pieces must stay mutually
  /// consistent (e.g. fragments cut from one reassembled request).
  /// Returns the variant's full piece list; the reference is valid until
  /// the next attack_family call for the same family.
  const Refs& attack_family(std::string_view family,
                            const MultiBuilder& build);

  /// Enables adaptive growth for one background payload kind: once a
  /// family of that kind has cycled through all of its variants, its
  /// variant count doubles (up to `max_variants`) and the new slots are
  /// minted lazily with the same deterministic per-slot seeds. Low-entropy
  /// kinds (ICS control frames, CAN frames) need this — with the default
  /// 32-variant cycle an anomaly engine would see a frozen payload
  /// universe and learn an artificially tight baseline. Kinds without a
  /// policy keep the exact legacy fixed-cycle behavior. Call before
  /// traffic starts; growing mid-run is deterministic but changes the
  /// handout sequence relative to a non-growing pool.
  void enable_growth(PayloadKind kind, std::size_t max_variants);

  /// Variants actually minted beyond the base cycle so far.
  std::size_t grown_variants() const noexcept { return grown_; }

  std::size_t variants() const noexcept { return variants_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  /// Number of distinct interned strings (all families, all variants).
  std::size_t interned_strings() const noexcept { return interned_; }
  std::uint64_t interned_bytes() const noexcept { return interned_bytes_; }

  /// Length quantum for background payload interning.
  static constexpr std::size_t kLengthGranularity = 32;
  static constexpr std::size_t kMinLen = 16;
  static constexpr std::size_t kMaxLen = 1400;
  /// Default growth ceiling for low-entropy kinds (the harness's choice):
  /// 8× the base cycle keeps entropy estimates honest without unbounded
  /// memory.
  static constexpr std::size_t kGrowthMaxVariants = 256;
  static std::size_t bucket_len(std::size_t target_len) noexcept;

 private:
  struct Family {
    std::vector<Ref> slots;
    std::size_t cursor = 0;
  };
  struct MultiFamily {
    std::vector<Refs> slots;
    std::size_t cursor = 0;
  };

  /// `limit` > variants_ marks the family growable up to that count;
  /// 0 (the default everywhere but growth-enabled background kinds)
  /// reproduces the fixed-cycle legacy behavior bit-exactly.
  Ref intern(Family& family, std::uint64_t family_seed,
             const std::function<std::string(util::Rng&)>& build,
             std::size_t limit = 0);
  void note_hit() noexcept;
  void note_miss(std::size_t strings, std::uint64_t bytes) noexcept;

  std::uint64_t seed_;
  std::size_t variants_;
  /// Growth policy per background kind: max variant count.
  util::FlatMap<PayloadKind, std::size_t> growth_;
  std::size_t grown_ = 0;
  /// Background families keyed by (kind << 32) | bucket.
  std::unordered_map<std::uint64_t, Family> background_;
  /// Attack families keyed by name (heterogeneous lookup, no per-call
  /// string construction).
  std::map<std::string, Family, std::less<>> attacks_;
  std::map<std::string, MultiFamily, std::less<>> multi_attacks_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t interned_ = 0;
  std::uint64_t interned_bytes_ = 0;
  telemetry::Counter* tele_hits_ = nullptr;
  telemetry::Counter* tele_misses_ = nullptr;
  telemetry::Counter* tele_grown_ = nullptr;
};

}  // namespace idseval::traffic
