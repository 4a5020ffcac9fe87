// Interned-payload scan cache: memoizes per-payload detection work
// (Shannon entropy, Aho-Corasick payload walks) keyed on the *pointer
// identity* of pooled payloads. traffic::PayloadPool interns payload
// content and hands out stable shared_ptr<const std::string> refs, so
// the same ≤32 variants per family flow past the sensors millions of
// times — one O(bytes) scan per variant plus an O(1) table hit per
// repeat replaces an O(bytes) rescan per packet (the nDPI/Suricata
// MPM-prefilter tradition applied to a simulated sensor).
//
// Safety of the pointer key: every entry pins its payload shared_ptr,
// so the string's address can never be freed and recycled for a
// different payload while the memo holds it. Capacity is bounded; once
// full, new payloads are scanned uncached (deterministically — the memo
// population order is the seeded traffic order, and cached results are
// bit-identical to recomputation by construction).
//
// The cache is invisible to simulated time: engines keep charging the
// abstract scan_cost_ops model as if every byte were scanned, so the
// golden determinism hash and all detection output are byte-identical
// with the cache on or off. Only wall-clock changes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/flow_table.hpp"

namespace idseval::ids {

/// Local mirror of the scan_cache.* telemetry counters, always counted
/// (telemetry handles are null without a registry) so tests and benches
/// can read cache behaviour directly off an engine.
struct ScanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_saved = 0;

  double hit_ratio() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// Bounded memo table: interned payload pointer -> V. V must be cheap
/// to default-construct; values are stored by move.
template <class V>
class PayloadMemo {
 public:
  using PayloadRef = std::shared_ptr<const std::string>;
  /// Generous versus the pool's real population (payload kinds x ≤32
  /// variants x a few length buckets); adaptive PayloadPool growth
  /// raises it alongside the variant caps via reserve_capacity (see
  /// SensorConfig::scan_cache_capacity) so overflow variants stay cached.
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit PayloadMemo(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity),
        hits_(telemetry::counter_handle(telemetry::names::kScanCacheHits)),
        misses_(
            telemetry::counter_handle(telemetry::names::kScanCacheMisses)),
        bytes_saved_(telemetry::counter_handle(
            telemetry::names::kScanCacheBytesSaved)) {}

  /// The cached value for this payload, or nullptr (counted as a miss —
  /// the caller is about to do the full scan).
  const V* find(const PayloadRef& payload) noexcept {
    const Entry* entry = table_.find(key_of(payload));
    if (entry == nullptr) {
      ++stats_.misses;
      telemetry::bump(misses_);
      return nullptr;
    }
    ++stats_.hits;
    telemetry::bump(hits_);
    return &entry->value;
  }

  /// Credits payload bytes a hit kept off the real CPU (engine-specific:
  /// the signature engine saves the bytes it did not re-run through the
  /// automaton, the anomaly engine the bytes it did not histogram).
  void credit_saved(std::uint64_t bytes) noexcept {
    stats_.bytes_saved += bytes;
    telemetry::bump(bytes_saved_, bytes);
  }

  /// Memoizes `value`, pinning the payload. Returns the stored copy, or
  /// nullptr when the memo is at capacity (caller keeps its local).
  const V* store(const PayloadRef& payload, V value) {
    if (payload == nullptr || table_.size() >= capacity_) return nullptr;
    auto [entry, inserted] = table_.try_emplace(key_of(payload));
    if (inserted) {
      entry->pin = payload;
      entry->value = std::move(value);
    }
    return &entry->value;
  }

  /// Raises the capacity ceiling (never lowers it — entries are already
  /// pinned). Adaptive PayloadPool growth calls this with the pool's
  /// growth headroom before traffic starts, so freshly minted overflow
  /// variants still land in the memo instead of falling back to uncached
  /// full scans.
  void reserve_capacity(std::size_t capacity) noexcept {
    if (capacity > capacity_) capacity_ = capacity;
  }

  std::size_t size() const noexcept { return table_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  const ScanCacheStats& stats() const noexcept { return stats_; }

  /// Drops every entry and its payload pin. Entries are pure content
  /// functions of their payload, so engines retain the memo across
  /// reset_state(); this exists for explicit invalidation (tests,
  /// future pool reconfiguration).
  void clear() noexcept { table_.clear(); }

 private:
  struct Entry {
    PayloadRef pin;
    V value{};
  };

  static std::uint64_t key_of(const PayloadRef& payload) noexcept {
    return static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(payload.get()));
  }

  std::size_t capacity_;
  util::FlowTable<std::uint64_t, Entry> table_;
  ScanCacheStats stats_;
  telemetry::Counter* hits_;
  telemetry::Counter* misses_;
  telemetry::Counter* bytes_saved_;
};

}  // namespace idseval::ids
