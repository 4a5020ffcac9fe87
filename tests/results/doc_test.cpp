#include "results/doc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace idseval::results {
namespace {

TEST(DocTest, KindsAndScalarAccessors) {
  EXPECT_TRUE(Doc().is_null());
  EXPECT_TRUE(Doc(true).as_bool());
  EXPECT_EQ(Doc(-7).as_i64(), -7);
  EXPECT_EQ(Doc(std::uint64_t{18446744073709551615ull}).as_u64(),
            18446744073709551615ull);
  EXPECT_DOUBLE_EQ(Doc(2.5).as_double(), 2.5);
  EXPECT_EQ(Doc("text").as_string(), "text");
  EXPECT_THROW(Doc(1).as_string(), std::invalid_argument);
  EXPECT_THROW(Doc("x").as_double(), std::invalid_argument);
  // A negative integer does not fit the unsigned accessor.
  EXPECT_THROW(Doc(-1).as_u64(), std::invalid_argument);
}

TEST(DocTest, ObjectKeepsInsertionOrderAndOverwritesInPlace) {
  Doc doc = Doc::object();
  doc.set("zebra", 1).set("apple", 2).set("mango", 3);
  doc.set("zebra", 9);  // overwrite must not move the key
  ASSERT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.items()[0].first, "zebra");
  EXPECT_EQ(doc.items()[0].second.as_i64(), 9);
  EXPECT_EQ(doc.items()[1].first, "apple");
  EXPECT_EQ(doc.items()[2].first, "mango");
  EXPECT_EQ(to_json(doc), "{\"zebra\":9,\"apple\":2,\"mango\":3}");
}

TEST(DocTest, BuildSerializeParseCompareRoundTrip) {
  Doc doc = Doc::object();
  Doc arr = Doc::array();
  arr.push(1).push(-2).push(2.5).push("three").push(nullptr).push(false);
  Doc nested = Doc::object();
  nested.set("seed", std::uint64_t{0x8ebff14e691bfd72ull})
      .set("ratio", 0.016949152542372881)
      .set("empty_obj", Doc::object())
      .set("empty_arr", Doc::array());
  doc.set("type", "cell")
      .set("values", std::move(arr))
      .set("nested", std::move(nested))
      .set("note", "tabs\tand\nnewlines \"quoted\" \\slash");
  const std::string json = to_json(doc);
  EXPECT_TRUE(validate_json_line(json));
  const Doc parsed = parse_json(json);
  EXPECT_EQ(parsed, doc);
  // Serialization is a fixed point: parse → serialize is byte-stable.
  EXPECT_EQ(to_json(parsed), json);
}

TEST(DocTest, IntegerKindsSurviveRoundTrip) {
  Doc doc = Doc::object();
  doc.set("u", std::numeric_limits<std::uint64_t>::max())
      .set("i", std::numeric_limits<std::int64_t>::min());
  const Doc parsed = parse_json(to_json(doc));
  EXPECT_EQ(parsed.find("u")->as_u64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parsed.find("i")->as_i64(),
            std::numeric_limits<std::int64_t>::min());
}

TEST(DocTest, DoublesRoundTripExactly) {
  const double values[] = {0.0,        -0.0,   1.0 / 3.0, 6.02e23,
                           5e-324,     1e308,  0.1,       2.2250738585072014e-308,
                           123456789.123456789};
  for (const double v : values) {
    Doc doc = Doc::array();
    doc.push(v);
    const Doc parsed = parse_json(to_json(doc));
    const double back = parsed.elements()[0].as_double();
    EXPECT_EQ(back, v) << to_json(doc);
  }
}

TEST(DocTest, NonFiniteDoublesSerializeAsNull) {
  Doc doc = Doc::array();
  doc.push(std::numeric_limits<double>::quiet_NaN())
      .push(std::numeric_limits<double>::infinity());
  EXPECT_EQ(to_json(doc), "[null,null]");
}

TEST(DocTest, NumericEqualityCrossesKinds) {
  // An integral double that round-trips through JSON re-parses as an
  // integer and must still compare equal.
  EXPECT_EQ(Doc(3.0), Doc(3));
  EXPECT_EQ(Doc(3u), Doc(3));
  EXPECT_NE(Doc(3.5), Doc(3));
}

TEST(JsonEscapeTest, EscapesPerRfc8259) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string("\b\f\r\t")), "\\b\\f\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
}

// Fuzz-ish escaping check: every byte pattern we can legally hold in a
// JSON string (all ASCII incl. controls, plus multi-byte UTF-8) must
// survive serialize → parse unchanged.
TEST(JsonEscapeTest, RandomStringsRoundTrip) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string utf8[] = {"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x99\x82"};
  for (int round = 0; round < 200; ++round) {
    std::string s;
    const int len = static_cast<int>(next() % 40);
    for (int i = 0; i < len; ++i) {
      const std::uint64_t pick = next();
      if (pick % 8 == 0) {
        s += utf8[pick % 3];
      } else {
        s += static_cast<char>(pick % 0x80);  // any ASCII incl. controls
      }
    }
    Doc doc = Doc::object();
    doc.set("s", s);
    const std::string json = to_json(doc);
    EXPECT_TRUE(validate_json_line(json)) << json;
    EXPECT_EQ(parse_json(json).find("s")->as_string(), s) << json;
  }
}

TEST(ParseJsonTest, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(parse_json("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(parse_json("\"\\ud83d\\ude42\"").as_string(),
            "\xf0\x9f\x99\x82");
  EXPECT_EQ(parse_json("\"\\n\\t\\\\\\\"\\/\"").as_string(), "\n\t\\\"/");
}

TEST(ParseJsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",            "{",          "{\"a\":}",     "{\"a\":1,}",
      "[1,]",        "01",         "1.",           ".5",
      "+1",          "1e",         "nulL",         "tru",
      "\"open",      "\"bad\\q\"", "{\"a\":1} x",  "{'a':1}",
      "{\"a\" 1}",   "[1 2]",      "\"\\ud83d\"",  "{\"a\":1}{",
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_json(text), std::invalid_argument) << text;
    EXPECT_FALSE(validate_json_line(text)) << text;
  }
}

TEST(ParseJsonTest, AcceptsPaddedCompleteValues) {
  EXPECT_TRUE(validate_json_line("  {\"x\":[1,2.5,-3e-2],\"y\":null} "));
  EXPECT_TRUE(validate_json_line("true"));
  EXPECT_TRUE(validate_json_line("-0.5"));
  EXPECT_EQ(parse_json(" 42 ").as_i64(), 42);
}

TEST(ParseJsonTest, RejectsNestingBeyondTheDepthLimitCleanly) {
  // Unbounded recursion on hostile input used to overflow the stack;
  // 200k levels must now fail with an ordinary parse error.
  const std::size_t deep = 200000;
  const std::string arrays(deep, '[');
  EXPECT_THROW(parse_json(arrays), std::invalid_argument);
  EXPECT_FALSE(validate_json_line(arrays));
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) objects += "{\"k\":";
  EXPECT_THROW(parse_json(objects), std::invalid_argument);
  EXPECT_FALSE(validate_json_line(objects));
  try {
    (void)parse_json(arrays);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParseJsonTest, AcceptsNestingUpToTheDepthLimit) {
  const std::string at_limit = std::string(kMaxJsonDepth, '[') +
                               std::string(kMaxJsonDepth, ']');
  const Doc doc = parse_json(at_limit);
  EXPECT_TRUE(doc.is_array());
  const std::string over = "[" + at_limit + "]";
  EXPECT_THROW(parse_json(over), std::invalid_argument);
}

}  // namespace
}  // namespace idseval::results
