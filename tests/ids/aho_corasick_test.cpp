#include "ids/aho_corasick.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "traffic/payload.hpp"
#include "util/rng.hpp"

namespace idseval::ids {
namespace {

TEST(AhoCorasickTest, RejectsEmptyPattern) {
  EXPECT_THROW(AhoCorasick({"ok", ""}), std::invalid_argument);
}

TEST(AhoCorasickTest, FindsSinglePattern) {
  const AhoCorasick ac({"needle"});
  const auto matches = ac.find_all("hay needle stack");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pattern_id, 0u);
  EXPECT_EQ(matches[0].end_offset, 10u);  // one past 'needle'
}

TEST(AhoCorasickTest, NoMatchIsEmpty) {
  const AhoCorasick ac({"needle"});
  EXPECT_TRUE(ac.find_all("plain haystack").empty());
  EXPECT_FALSE(ac.contains_any("plain haystack"));
}

TEST(AhoCorasickTest, FindsOverlappingPatterns) {
  const AhoCorasick ac({"he", "she", "his", "hers"});
  const auto matches = ac.find_all("ushers");
  // "ushers" contains she, he, hers.
  std::vector<std::size_t> ids;
  for (const auto& m : matches) ids.push_back(m.pattern_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(AhoCorasickTest, RepeatedOccurrencesAllReported) {
  const AhoCorasick ac({"ab"});
  EXPECT_EQ(ac.find_all("ababab").size(), 3u);
}

TEST(AhoCorasickTest, FindSetDeduplicates) {
  const AhoCorasick ac({"ab", "zz"});
  const auto set = ac.find_set("abababab");
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0], 0u);
}

TEST(AhoCorasickTest, PatternInsidePattern) {
  const AhoCorasick ac({"/etc/passwd", "passwd"});
  const auto set = ac.find_set("GET /../../etc/passwd HTTP/1.0");
  EXPECT_EQ(set.size(), 2u);
}

TEST(AhoCorasickTest, BinaryPatterns) {
  const std::string nop_sled = "\x90\x90\x90\x90\x90\x90";
  const AhoCorasick ac({nop_sled});
  std::string payload = "header";
  payload += std::string(10, '\x90');
  payload += "tail";
  EXPECT_TRUE(ac.contains_any(payload));
  EXPECT_FALSE(ac.contains_any("header tail"));
}

TEST(AhoCorasickTest, MatchAtStartAndEnd) {
  const AhoCorasick ac({"start", "end"});
  const auto set = ac.find_set("start middle end");
  EXPECT_EQ(set.size(), 2u);
}

TEST(AhoCorasickTest, PatternEqualsText) {
  const AhoCorasick ac({"exact"});
  EXPECT_TRUE(ac.contains_any("exact"));
}

TEST(AhoCorasickTest, EmptyTextMatchesNothing) {
  const AhoCorasick ac({"x"});
  EXPECT_FALSE(ac.contains_any(""));
  EXPECT_TRUE(ac.find_all("").empty());
}

TEST(AhoCorasickTest, AccessorsAndNodeCount) {
  const AhoCorasick ac({"abc", "abd"});
  EXPECT_EQ(ac.pattern_count(), 2u);
  EXPECT_EQ(ac.pattern(1), "abd");
  // root + a + b + c + d = 5 nodes (shared prefix "ab").
  EXPECT_EQ(ac.node_count(), 5u);
}

TEST(AhoCorasickTest, AgreesWithNaiveSearchOnRandomText) {
  const std::vector<std::string> patterns = {"track", "GET /", "passwd",
                                             "\r\n\r\n", "seq="};
  const AhoCorasick ac(patterns);
  util::Rng rng(123);
  for (int round = 0; round < 50; ++round) {
    const auto kind = static_cast<traffic::PayloadKind>(round % 7);
    const std::string text = traffic::synthesize(kind, 500, rng);
    const auto set = ac.find_set(text);
    for (std::size_t pid = 0; pid < patterns.size(); ++pid) {
      const bool naive = text.find(patterns[pid]) != std::string::npos;
      const bool found =
          std::find(set.begin(), set.end(), pid) != set.end();
      EXPECT_EQ(naive, found)
          << "pattern '" << patterns[pid] << "' round " << round;
    }
  }
}

TEST(AhoCorasickTest, ManyPatternsStress) {
  std::vector<std::string> patterns;
  util::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    patterns.push_back(traffic::random_printable(8, rng));
  }
  const AhoCorasick ac(patterns);
  // Every pattern must be found in a text that embeds it.
  for (std::size_t pid = 0; pid < patterns.size(); ++pid) {
    const std::string text = "prefix " + patterns[pid] + " suffix";
    const auto set = ac.find_set(text);
    EXPECT_TRUE(std::find(set.begin(), set.end(), pid) != set.end());
  }
}

// --- Stepping API ---------------------------------------------------------

std::string random_text(util::Rng& rng, std::size_t len,
                        std::string_view alphabet) {
  std::string s(len, '\0');
  for (char& ch : s) ch = alphabet[rng.index(alphabet.size())];
  return s;
}

AhoCorasick::Node walk(const AhoCorasick& ac, std::string_view text,
                       AhoCorasick::Node node = AhoCorasick::kRoot) {
  for (const char ch : text) {
    node = ac.step(node, static_cast<unsigned char>(ch));
  }
  return node;
}

const std::vector<std::string> kStepPatterns = {
    "ab", "abab", "bab", "aaa", "b", "abba", "ababababab", "cab", "abcabc"};

TEST(AhoCorasickTest, SteppingOverBReportsTheMatchesOfABEndingInB) {
  const AhoCorasick ac(kStepPatterns);
  util::Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const std::string a = random_text(rng, rng.index(20), "abc");
    const std::string b = random_text(rng, rng.index(20), "abc");
    std::vector<std::pair<std::size_t, std::size_t>> stepped;
    AhoCorasick::Node node = walk(ac, a);
    for (std::size_t i = 0; i < b.size(); ++i) {
      node = ac.step(node, static_cast<unsigned char>(b[i]));
      for (const std::int32_t pid : ac.outputs(node)) {
        stepped.emplace_back(static_cast<std::size_t>(pid), a.size() + i + 1);
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> want;
    for (const auto& m : ac.find_all(a + b)) {
      if (m.end_offset > a.size()) {
        want.emplace_back(m.pattern_id, m.end_offset);
      }
    }
    EXPECT_EQ(stepped, want) << "a=" << a << " b=" << b;
  }
}

TEST(AhoCorasickTest, EndNodeOfAPayloadWalkIsTheStreamNode) {
  // A walk from the root over a payload of at least L bytes ends where a
  // stream that ends with that payload does: the state's depth never
  // exceeds L, so it cannot reach back past the payload. Shorter payloads
  // agree as soon as the stream state's depth fits inside the bytes read.
  const AhoCorasick ac(kStepPatterns);
  const std::size_t longest = ac.max_pattern_length();
  util::Rng rng(32);
  for (int round = 0; round < 300; ++round) {
    const std::string prefix = random_text(rng, rng.index(30), "abc");
    const std::string payload = random_text(rng, 1 + rng.index(30), "abc");
    AhoCorasick::Node stream = walk(ac, prefix);
    AhoCorasick::Node own = AhoCorasick::kRoot;
    bool converged = ac.depth(stream) == 0;
    for (std::size_t k = 0; k < payload.size(); ++k) {
      const auto byte = static_cast<unsigned char>(payload[k]);
      stream = ac.step(stream, byte);
      own = ac.step(own, byte);
      converged = converged || ac.depth(stream) <= k + 1;
      if (converged) {
        EXPECT_EQ(stream, own) << prefix << "|" << payload;
      }
      EXPECT_LE(ac.depth(stream), longest);
    }
    EXPECT_EQ(stream, walk(ac, prefix + payload));
    EXPECT_EQ(own, walk(ac, payload));
    if (payload.size() >= longest) {
      EXPECT_EQ(stream, own);
    }
  }
}

TEST(AhoCorasickTest, DepthClampKeepsExactlyMatchesStartingInTheWindow) {
  const AhoCorasick ac(kStepPatterns);
  util::Rng rng(33);
  for (int round = 0; round < 300; ++round) {
    const std::string past = random_text(rng, rng.index(30), "abc");
    const std::string next = random_text(rng, 1 + rng.index(12), "abc");
    const std::size_t window = rng.index(12);
    const AhoCorasick::Node clamped =
        ac.clamp_depth(walk(ac, past), window);
    const std::string kept =
        past.substr(past.size() - std::min(window, past.size()));
    EXPECT_LE(ac.depth(clamped), window);
    EXPECT_EQ(clamped, walk(ac, kept)) << past << " w=" << window;
    // Stepping on from the clamped state finds exactly the matches of
    // kept || next that end in next: those starting inside the window.
    std::vector<std::size_t> stepped;
    AhoCorasick::Node node = clamped;
    for (const char ch : next) {
      node = ac.step(node, static_cast<unsigned char>(ch));
      for (const std::int32_t pid : ac.outputs(node)) {
        stepped.push_back(static_cast<std::size_t>(pid));
      }
    }
    std::vector<std::size_t> want;
    for (const auto& m : ac.find_all(kept + next)) {
      if (m.end_offset > kept.size()) want.push_back(m.pattern_id);
    }
    EXPECT_EQ(stepped, want) << past << "|" << next << " w=" << window;
  }
}

TEST(AhoCorasickTest, DepthAndOutputsDescribeTheNode) {
  const AhoCorasick ac({"he", "she", "his", "hers"});
  const AhoCorasick::Node she = walk(ac, "she");
  EXPECT_EQ(ac.depth(AhoCorasick::kRoot), 0u);
  EXPECT_TRUE(ac.outputs(AhoCorasick::kRoot).empty());
  EXPECT_EQ(ac.depth(she), 3u);
  // "she" ends both "she" and, through its fail link, "he".
  std::vector<std::int32_t> out(ac.outputs(she).begin(),
                                ac.outputs(she).end());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 1}));
  EXPECT_EQ(ac.clamp_depth(she, 2), walk(ac, "he"));
  EXPECT_EQ(ac.clamp_depth(she, 0), AhoCorasick::kRoot);
  EXPECT_EQ(ac.pattern_length(3), 4u);
}

}  // namespace
}  // namespace idseval::ids
