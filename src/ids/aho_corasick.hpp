// Aho–Corasick multi-pattern matcher: the workhorse of the signature
// engine. One pass over each payload reports every published pattern it
// contains, which is what makes deep inspection affordable at line rate —
// and why its per-byte cost, not the rule count, dominates sensor
// throughput (System Throughput / Maximal Throughput with Zero Loss).
//
// Besides the whole-text scans the automaton is steppable: a stream
// scanner keeps one Node per flow and feeds it bytes as they arrive, so
// a pattern split across packets is found without re-reading old bytes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace idseval::ids {

class AhoCorasick {
 public:
  /// Automaton state. The state after scanning a text from kRoot is the
  /// trie node of the text's longest suffix that is a prefix of some
  /// pattern.
  using Node = std::int32_t;
  static constexpr Node kRoot = 0;

  /// Builds the automaton over the given patterns. Pattern ids are their
  /// indices in `patterns`. Empty patterns are rejected.
  explicit AhoCorasick(const std::vector<std::string>& patterns);

  struct Match {
    std::size_t pattern_id;
    std::size_t end_offset;  ///< Offset one past the match's last byte.
  };

  /// Scans `text`, returning every match (including overlaps).
  std::vector<Match> find_all(std::string_view text) const;

  /// Scan that only reports which patterns occurred (deduplicated),
  /// cheaper when positions don't matter.
  std::vector<std::size_t> find_set(std::string_view text) const;

  /// True if any pattern occurs.
  bool contains_any(std::string_view text) const;

  /// One transition of the (dense) goto function.
  Node step(Node node, unsigned char byte) const noexcept {
    return next_[static_cast<std::size_t>(node)][byte];
  }
  /// Length of the pattern prefix `node` stands for (0 at the root).
  std::size_t depth(Node node) const noexcept {
    return info_[static_cast<std::size_t>(node)].depth;
  }
  /// Every pattern that ends when the automaton enters `node`: the
  /// node's own pattern plus those inherited along its fail chain.
  /// Empty for most nodes, so callers test it before iterating.
  std::span<const std::int32_t> outputs(Node node) const noexcept {
    const NodeInfo& info = info_[static_cast<std::size_t>(node)];
    return {outputs_.data() + info.out_begin, info.out_count};
  }
  /// The deepest node on `node`'s fail chain (itself included) whose
  /// depth is at most `max_depth`: the state a scan of only the last
  /// `max_depth` bytes of the text would have reached.
  Node clamp_depth(Node node, std::size_t max_depth) const noexcept {
    while (depth(node) > max_depth) {
      node = fail_[static_cast<std::size_t>(node)];
    }
    return node;
  }

  std::size_t pattern_count() const noexcept { return patterns_.size(); }
  /// Longest pattern, in bytes (0 when the set is empty). Any match in a
  /// text ending at offset e starts at or after e - max_pattern_length(),
  /// which is what makes boundary-limited stream scans sound: a match
  /// that crosses a split ends within the first L-1 bytes after it.
  std::size_t max_pattern_length() const noexcept {
    return max_pattern_length_;
  }
  const std::string& pattern(std::size_t id) const {
    return patterns_.at(id);
  }
  std::size_t pattern_length(std::size_t id) const noexcept {
    return patterns_[id].size();
  }
  std::size_t node_count() const noexcept { return next_.size(); }

 private:
  static constexpr std::size_t kAlphabet = 256;
  using Row = std::array<Node, kAlphabet>;
  /// Per-node summary, built once: depth for the stream clamp and a
  /// slice of outputs_ (out_count == 0 on the common no-match node).
  struct NodeInfo {
    std::uint32_t depth = 0;
    std::uint32_t out_begin = 0;
    std::uint32_t out_count = 0;
  };

  void build(const std::vector<std::string>& patterns);

  std::vector<std::string> patterns_;
  std::size_t max_pattern_length_ = 0;
  std::vector<Row> next_;  ///< Goto function (dense).
  std::vector<Node> fail_;
  std::vector<NodeInfo> info_;
  std::vector<std::int32_t> outputs_;  ///< All nodes' outputs, flattened.
};

}  // namespace idseval::ids
