#include "traffic/payload_pool.hpp"

#include <algorithm>

namespace idseval::traffic {

PayloadPool::PayloadPool(std::uint64_t seed, std::size_t variants)
    : seed_(seed),
      variants_(std::max<std::size_t>(1, variants)),
      tele_hits_(
          telemetry::counter_handle(telemetry::names::kPayloadPoolHits)),
      tele_misses_(
          telemetry::counter_handle(telemetry::names::kPayloadPoolMisses)),
      tele_grown_(
          telemetry::counter_handle(telemetry::names::kPayloadPoolGrown)) {}

void PayloadPool::enable_growth(PayloadKind kind,
                                std::size_t max_variants) {
  if (max_variants > variants_) growth_[kind] = max_variants;
}

std::size_t PayloadPool::bucket_len(std::size_t target_len) noexcept {
  target_len = std::clamp(target_len, kMinLen, kMaxLen);
  // Round to the NEAREST granule, not up: quantization error is then
  // zero-mean over a smooth length distribution, so pooled traffic keeps
  // the profile's mean bytes/packet. Rounding up instead inflates every
  // payload, which raises per-packet scan cost and shifts sensor knees.
  const std::size_t rounded =
      ((target_len + kLengthGranularity / 2) / kLengthGranularity) *
      kLengthGranularity;
  return std::clamp(rounded, kLengthGranularity, kMaxLen);
}

void PayloadPool::note_hit() noexcept {
  ++hits_;
  telemetry::bump(tele_hits_);
}

void PayloadPool::note_miss(std::size_t strings,
                            std::uint64_t bytes) noexcept {
  ++misses_;
  interned_ += strings;
  interned_bytes_ += bytes;
  telemetry::bump(tele_misses_);
}

PayloadPool::Ref PayloadPool::intern(
    Family& family, std::uint64_t family_seed,
    const std::function<std::string(util::Rng&)>& build,
    std::size_t limit) {
  if (family.slots.empty()) family.slots.resize(variants_);
  const std::size_t slot = family.cursor;
  ++family.cursor;
  if (family.cursor >= family.slots.size()) {
    if (limit > family.slots.size()) {
      // Adaptive growth: the family has cycled through every existing
      // variant — double the cycle (capped at the policy limit). The new
      // slots mint lazily below with their deterministic per-slot seeds,
      // so content never depends on growth history.
      const std::size_t before = family.slots.size();
      family.slots.resize(std::min(limit, before * 2));
      const std::size_t added = family.slots.size() - before;
      grown_ += added;
      telemetry::bump(tele_grown_, added);
    } else {
      family.cursor = 0;
    }
  }
  Ref& ref = family.slots[slot];
  if (ref == nullptr) {
    util::Rng rng(util::derive_seed(family_seed, slot));
    auto built = std::make_shared<const std::string>(build(rng));
    note_miss(1, built->size());
    ref = std::move(built);
  } else {
    note_hit();
  }
  return ref;
}

PayloadPool::Ref PayloadPool::background(PayloadKind kind,
                                         std::size_t target_len) {
  const std::size_t bucket = bucket_len(target_len);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(kind) << 32) | bucket;
  const std::size_t* limit = growth_.find(kind);
  return intern(background_[key], seed_ ^ util::derive_seed(key, 0),
                [kind, bucket](util::Rng& rng) {
                  return synthesize(kind, bucket, rng);
                },
                limit == nullptr ? 0 : *limit);
}

PayloadPool::Ref PayloadPool::attack(std::string_view family,
                                     const Builder& build) {
  auto it = attacks_.find(family);
  if (it == attacks_.end()) {
    it = attacks_.emplace(std::string(family), Family{}).first;
  }
  return intern(it->second, seed_ ^ util::hash64(family), build);
}

const PayloadPool::Refs& PayloadPool::attack_family(
    std::string_view family, const MultiBuilder& build) {
  auto it = multi_attacks_.find(family);
  if (it == multi_attacks_.end()) {
    it = multi_attacks_.emplace(std::string(family), MultiFamily{}).first;
  }
  MultiFamily& fam = it->second;
  if (fam.slots.empty()) fam.slots.resize(variants_);
  const std::size_t slot = fam.cursor;
  fam.cursor = (fam.cursor + 1) % variants_;
  Refs& refs = fam.slots[slot];
  if (refs.empty()) {
    util::Rng rng(
        util::derive_seed(seed_ ^ util::hash64(family), slot));
    std::vector<std::string> pieces = build(rng);
    refs.reserve(pieces.size());
    std::uint64_t bytes = 0;
    for (std::string& piece : pieces) {
      bytes += piece.size();
      refs.push_back(
          std::make_shared<const std::string>(std::move(piece)));
    }
    note_miss(refs.size(), bytes);
  } else {
    note_hit();
  }
  return refs;
}

}  // namespace idseval::traffic
