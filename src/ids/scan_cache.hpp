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
// different payload while the memo holds it. Capacity is fixed
// (PayloadMemo::kCapacity); once full, new payloads are walked afresh on
// every packet (deterministically — the memo population order is the
// seeded traffic order, and cached results are bit-identical to
// recomputation by construction).
//
// The cache is invisible to simulated time: engines keep charging the
// abstract scan_cost_ops model as if every byte were scanned, so the
// golden determinism hash and all detection output are exactly those of
// a fresh walk per packet. Only wall-clock changes. Memo traffic is
// counted only through the scan_cache.* telemetry counters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/flow_table.hpp"

namespace idseval::ids {

/// Bounded memo table: interned payload pointer -> V. V must be cheap
/// to default-construct; values are stored by move.
template <class V>
class PayloadMemo {
 public:
  using PayloadRef = std::shared_ptr<const std::string>;
  /// Entries per memo. The largest measured population is 4689 distinct
  /// payloads (SentryNID on ecommerce); adaptive PayloadPool growth on
  /// ics/canbus stays under 4096 + 1792.
  static constexpr std::size_t kCapacity = 8192;

  PayloadMemo()
      : hits_(telemetry::counter_handle(telemetry::names::kScanCacheHits)),
        misses_(
            telemetry::counter_handle(telemetry::names::kScanCacheMisses)),
        bytes_saved_(telemetry::counter_handle(
            telemetry::names::kScanCacheBytesSaved)) {}

  /// The cached value for this payload, or nullptr (counted as a miss —
  /// the caller is about to do the full scan).
  const V* find(const PayloadRef& payload) noexcept {
    const Entry* entry = table_.find(key_of(payload));
    if (entry == nullptr) {
      telemetry::bump(misses_);
      return nullptr;
    }
    telemetry::bump(hits_);
    return &entry->value;
  }

  /// Credits payload bytes a hit kept off the real CPU (engine-specific:
  /// the signature engine saves the bytes it did not re-run through the
  /// automaton, the anomaly engine the bytes it did not histogram).
  void credit_saved(std::uint64_t bytes) noexcept {
    telemetry::bump(bytes_saved_, bytes);
  }

  /// Memoizes `value`, pinning the payload. Returns the stored copy, or
  /// nullptr when the memo is at capacity (caller keeps its local).
  const V* store(const PayloadRef& payload, V value) {
    if (payload == nullptr || table_.size() >= kCapacity) return nullptr;
    auto [entry, inserted] = table_.try_emplace(key_of(payload));
    if (inserted) {
      entry->pin = payload;
      entry->value = std::move(value);
    }
    return &entry->value;
  }

  std::size_t size() const noexcept { return table_.size(); }

 private:
  struct Entry {
    PayloadRef pin;
    V value{};
  };

  static std::uint64_t key_of(const PayloadRef& payload) noexcept {
    return static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(payload.get()));
  }

  util::FlowTable<std::uint64_t, Entry> table_;
  telemetry::Counter* hits_;
  telemetry::Counter* misses_;
  telemetry::Counter* bytes_saved_;
};

}  // namespace idseval::ids
