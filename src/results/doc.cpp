#include "results/doc.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace idseval::results {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(what);
}

}  // namespace

void Doc::kind_error(const char* expected) const {
  fail(std::string("Doc: expected ") + expected + " value");
}

Doc& Doc::set(std::string_view key, Doc value) {
  if (kind_ != Kind::kObject) kind_error("object");
  for (auto& [name, member] : object_) {
    if (name == key) {
      member = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const Doc* Doc::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, member] : object_) {
    if (name == key) return &member;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Doc>>& Doc::items() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return object_;
}

Doc& Doc::push(Doc value) {
  if (kind_ != Kind::kArray) kind_error("array");
  array_.push_back(std::move(value));
  return *this;
}

const std::vector<Doc>& Doc::elements() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return array_;
}

std::size_t Doc::size() const noexcept {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

bool Doc::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}

std::int64_t Doc::as_i64() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kUint) {
    if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) {
      fail("Doc: unsigned value out of int64 range");
    }
    return static_cast<std::int64_t>(uint_);
  }
  kind_error("integer");
}

std::uint64_t Doc::as_u64() const {
  if (kind_ == Kind::kUint) return uint_;
  if (kind_ == Kind::kInt) {
    if (int_ < 0) fail("Doc: negative value has no uint64 representation");
    return static_cast<std::uint64_t>(int_);
  }
  kind_error("integer");
}

double Doc::as_double() const {
  switch (kind_) {
    case Kind::kDouble:
      return double_;
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    default:
      kind_error("number");
  }
}

const std::string& Doc::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}

bool Doc::operator==(const Doc& other) const {
  if (is_number() && other.is_number()) {
    // Compare integer kinds exactly when both sides are integers (a
    // double comparison would conflate distinct huge u64 values).
    const bool lhs_int = kind_ != Kind::kDouble;
    const bool rhs_int = other.kind_ != Kind::kDouble;
    if (lhs_int && rhs_int) {
      const bool lhs_neg = kind_ == Kind::kInt && int_ < 0;
      const bool rhs_neg = other.kind_ == Kind::kInt && other.int_ < 0;
      if (lhs_neg != rhs_neg) return false;
      if (lhs_neg) return int_ == other.int_;
      const std::uint64_t a =
          kind_ == Kind::kUint ? uint_ : static_cast<std::uint64_t>(int_);
      const std::uint64_t b = other.kind_ == Kind::kUint
                                  ? other.uint_
                                  : static_cast<std::uint64_t>(other.int_);
      return a == b;
    }
    return as_double() == other.as_double();
  }
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kObject:
      return object_ == other.object_;
    default:
      return false;  // numbers handled above
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string fmt_double_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

void append_scalar(const Doc& doc, std::string& out) {
  switch (doc.kind()) {
    case Doc::Kind::kNull:
      out += "null";
      break;
    case Doc::Kind::kBool:
      out += doc.as_bool() ? "true" : "false";
      break;
    case Doc::Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(doc.as_i64()));
      out += buf;
      break;
    }
    case Doc::Kind::kUint: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(doc.as_u64()));
      out += buf;
      break;
    }
    case Doc::Kind::kDouble: {
      const double v = doc.as_double();
      if (!std::isfinite(v)) {
        out += "null";  // JSON has no inf/nan
      } else {
        out += fmt_double_exact(v);
      }
      break;
    }
    case Doc::Kind::kString:
      out += '"';
      out += json_escape(doc.as_string());
      out += '"';
      break;
    default:
      fail("Doc: append_scalar on container");
  }
}

void write_compact(const Doc& doc, std::string& out) {
  switch (doc.kind()) {
    case Doc::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Doc& el : doc.elements()) {
        if (!first) out += ',';
        first = false;
        write_compact(el, out);
      }
      out += ']';
      break;
    }
    case Doc::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : doc.items()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(key);
        out += "\":";
        write_compact(member, out);
      }
      out += '}';
      break;
    }
    default:
      append_scalar(doc, out);
  }
}

void write_pretty(const Doc& doc, std::string& out, int indent, int depth) {
  const auto pad = [&](int d) { out.append(static_cast<std::size_t>(indent) * d, ' '); };
  switch (doc.kind()) {
    case Doc::Kind::kArray: {
      if (doc.size() == 0) {
        out += "[]";
        return;
      }
      out += "[\n";
      bool first = true;
      for (const Doc& el : doc.elements()) {
        if (!first) out += ",\n";
        first = false;
        pad(depth + 1);
        write_pretty(el, out, indent, depth + 1);
      }
      out += '\n';
      pad(depth);
      out += ']';
      break;
    }
    case Doc::Kind::kObject: {
      if (doc.size() == 0) {
        out += "{}";
        return;
      }
      out += "{\n";
      bool first = true;
      for (const auto& [key, member] : doc.items()) {
        if (!first) out += ",\n";
        first = false;
        pad(depth + 1);
        out += '"';
        out += json_escape(key);
        out += "\": ";
        write_pretty(member, out, indent, depth + 1);
      }
      out += '\n';
      pad(depth);
      out += '}';
      break;
    }
    default:
      append_scalar(doc, out);
  }
}

}  // namespace

std::string to_json(const Doc& doc) {
  std::string out;
  write_compact(doc, out);
  return out;
}

std::string to_json_pretty(const Doc& doc, int indent) {
  std::string out;
  write_pretty(doc, out, indent < 0 ? 0 : indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser: strict recursive descent over one complete JSON value.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Doc parse() {
    skip_ws();
    Doc doc = parse_value();
    skip_ws();
    if (pos_ != text_.size()) error("trailing content after JSON value");
    return doc;
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    fail("parse_json: " + what + " at offset " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      error(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      error("invalid literal");
    }
    pos_ += word.size();
  }

  Doc parse_value() {
    if (eof()) error("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_nested(&Parser::parse_object);
      case '[':
        return parse_nested(&Parser::parse_array);
      case '"':
        return Doc(parse_string());
      case 't':
        expect_literal("true");
        return Doc(true);
      case 'f':
        expect_literal("false");
        return Doc(false);
      case 'n':
        expect_literal("null");
        return Doc(nullptr);
      default:
        return parse_number();
    }
  }

  Doc parse_nested(Doc (Parser::*parse_container)()) {
    if (depth_ == kMaxJsonDepth) {
      error("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    ++depth_;
    Doc doc = (this->*parse_container)();
    --depth_;
    return doc;
  }

  Doc parse_object() {
    expect('{');
    Doc doc = Doc::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return doc;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') error("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      doc.set(key, parse_value());
      skip_ws();
      if (eof()) error("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return doc;
    }
  }

  Doc parse_array() {
    expect('[');
    Doc doc = Doc::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return doc;
    }
    while (true) {
      skip_ws();
      doc.push(parse_value());
      skip_ws();
      if (eof()) error("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return doc;
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) error("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        error("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    return value;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) error("raw control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // consume backslash
      if (eof()) error("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: must pair with \uDC00..\uDFFF.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              error("unpaired high surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              error("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            error("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          error("invalid escape character");
      }
    }
  }

  Doc parse_number() {
    const std::size_t start = pos_;
    bool negative = false;
    if (!eof() && peek() == '-') {
      negative = true;
      ++pos_;
    }
    if (eof() || peek() < '0' || peek() > '9') error("invalid number");
    if (peek() == '0') {
      ++pos_;  // leading zero may not be followed by more digits
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        error("digit required after decimal point");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') {
        error("digit required in exponent");
      }
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (negative) {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end && *end == '\0') {
          return Doc(static_cast<std::int64_t>(v));
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end && *end == '\0') {
          return Doc(static_cast<std::uint64_t>(v));
        }
      }
      // Out-of-range integers fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') error("invalid number");
    return Doc(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< Open arrays/objects around pos_.
};

}  // namespace

Doc parse_json(std::string_view text) { return Parser(text).parse(); }

bool validate_json_line(std::string_view line) noexcept {
  try {
    (void)parse_json(line);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace idseval::results
