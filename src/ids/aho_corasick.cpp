#include "ids/aho_corasick.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace idseval::ids {

AhoCorasick::AhoCorasick(const std::vector<std::string>& patterns) {
  build(patterns);
}

void AhoCorasick::build(const std::vector<std::string>& patterns) {
  patterns_ = patterns;
  for (const auto& p : patterns_) {
    if (p.empty()) {
      throw std::invalid_argument("AhoCorasick: empty pattern");
    }
    max_pattern_length_ = std::max(max_pattern_length_, p.size());
  }

  // Trie construction. Outputs are collected per node here and flattened
  // into outputs_ once the failure links are known.
  std::vector<std::vector<std::int32_t>> output(1);
  next_.emplace_back();
  next_[0].fill(-1);
  info_.emplace_back();
  for (std::size_t pid = 0; pid < patterns_.size(); ++pid) {
    Node node = kRoot;
    for (unsigned char c : patterns_[pid]) {
      if (next_[static_cast<std::size_t>(node)][c] < 0) {
        next_[static_cast<std::size_t>(node)][c] =
            static_cast<Node>(next_.size());
        info_.push_back(NodeInfo{info_[static_cast<std::size_t>(node)].depth +
                                 1});
        next_.emplace_back();
        next_.back().fill(-1);
        output.emplace_back();
      }
      node = next_[static_cast<std::size_t>(node)][c];
    }
    output[static_cast<std::size_t>(node)].push_back(
        static_cast<std::int32_t>(pid));
  }

  // BFS to set failure links and convert to a full goto automaton.
  fail_.assign(next_.size(), kRoot);
  std::queue<Node> bfs;
  for (std::size_t c = 0; c < kAlphabet; ++c) {
    Node& t = next_[0][c];
    if (t < 0) {
      t = kRoot;
    } else {
      bfs.push(t);
    }
  }
  while (!bfs.empty()) {
    const Node u = bfs.front();
    bfs.pop();
    const Node fu = fail_[static_cast<std::size_t>(u)];
    // Inherit outputs along the failure chain (fu is shallower, so its
    // list is already complete).
    const auto& fo = output[static_cast<std::size_t>(fu)];
    auto& uo = output[static_cast<std::size_t>(u)];
    uo.insert(uo.end(), fo.begin(), fo.end());
    for (std::size_t c = 0; c < kAlphabet; ++c) {
      Node& t = next_[static_cast<std::size_t>(u)][c];
      if (t < 0) {
        t = next_[static_cast<std::size_t>(fu)][c];
      } else {
        fail_[static_cast<std::size_t>(t)] =
            next_[static_cast<std::size_t>(fu)][c];
        bfs.push(t);
      }
    }
  }

  for (std::size_t node = 0; node < output.size(); ++node) {
    info_[node].out_begin = static_cast<std::uint32_t>(outputs_.size());
    info_[node].out_count = static_cast<std::uint32_t>(output[node].size());
    outputs_.insert(outputs_.end(), output[node].begin(), output[node].end());
  }
}

std::vector<AhoCorasick::Match> AhoCorasick::find_all(
    std::string_view text) const {
  std::vector<Match> matches;
  Node node = kRoot;
  for (std::size_t i = 0; i < text.size(); ++i) {
    node = step(node, static_cast<unsigned char>(text[i]));
    for (const std::int32_t pid : outputs(node)) {
      matches.push_back(Match{static_cast<std::size_t>(pid), i + 1});
    }
  }
  return matches;
}

std::vector<std::size_t> AhoCorasick::find_set(std::string_view text) const {
  std::vector<bool> seen(patterns_.size(), false);
  std::size_t remaining = patterns_.size();
  Node node = kRoot;
  for (const char ch : text) {
    node = step(node, static_cast<unsigned char>(ch));
    for (const std::int32_t pid : outputs(node)) {
      if (!seen[static_cast<std::size_t>(pid)]) {
        seen[static_cast<std::size_t>(pid)] = true;
        if (--remaining == 0) break;
      }
    }
    if (remaining == 0) break;
  }
  std::vector<std::size_t> out;
  for (std::size_t pid = 0; pid < seen.size(); ++pid) {
    if (seen[pid]) out.push_back(pid);
  }
  return out;
}

bool AhoCorasick::contains_any(std::string_view text) const {
  Node node = kRoot;
  for (const char ch : text) {
    node = step(node, static_cast<unsigned char>(ch));
    if (info_[static_cast<std::size_t>(node)].out_count != 0) return true;
  }
  return false;
}

}  // namespace idseval::ids
