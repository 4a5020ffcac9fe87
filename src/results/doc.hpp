// The unified results representation: every artifact this repo emits
// (rendered report tables, campaign store rows, trace events, CSV
// exports, bench reports) is built as a `Doc` value tree and rendered by
// one of the writers in this directory. One representation, pluggable
// writers — the human tables and the machine exports can never disagree,
// and a new export format is a writer, not a cross-cutting change.
//
// Doc is a small JSON-shaped value: null, bool, signed/unsigned 64-bit
// integer, double, string, array, or object with *insertion-ordered*
// keys (artifact byte-stability depends on key order being the build
// order, not a hash or sort order). Numbers keep their integer-ness:
// 64-bit seeds round-trip exactly instead of sagging through a double.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace idseval::results {

class Doc {
 public:
  enum class Kind {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Doc() noexcept : kind_(Kind::kNull) {}
  Doc(std::nullptr_t) noexcept : Doc() {}
  Doc(bool v) noexcept : kind_(Kind::kBool), bool_(v) {}
  Doc(int v) noexcept : kind_(Kind::kInt), int_(v) {}
  Doc(long v) noexcept : kind_(Kind::kInt), int_(v) {}
  Doc(long long v) noexcept : kind_(Kind::kInt), int_(v) {}
  Doc(unsigned v) noexcept : kind_(Kind::kUint), uint_(v) {}
  Doc(unsigned long v) noexcept : kind_(Kind::kUint), uint_(v) {}
  Doc(unsigned long long v) noexcept : kind_(Kind::kUint), uint_(v) {}
  Doc(double v) noexcept : kind_(Kind::kDouble), double_(v) {}
  Doc(const char* s) : kind_(Kind::kString), string_(s) {}
  Doc(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Doc(std::string_view s) : kind_(Kind::kString), string_(s) {}

  static Doc array() {
    Doc d;
    d.kind_ = Kind::kArray;
    return d;
  }
  static Doc object() {
    Doc d;
    d.kind_ = Kind::kObject;
    return d;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  /// Scalar = anything a CSV cell or table cell can hold.
  bool is_scalar() const noexcept { return !is_array() && !is_object(); }

  // --- object interface (throws std::invalid_argument off-kind) --------
  /// Sets `key` (overwriting in place if present, appending otherwise)
  /// and returns *this so event objects read as one chained expression.
  Doc& set(std::string_view key, Doc value);
  /// Member lookup; nullptr when absent (or when not an object).
  const Doc* find(std::string_view key) const noexcept;
  const std::vector<std::pair<std::string, Doc>>& items() const;

  // --- array interface -------------------------------------------------
  Doc& push(Doc value);
  const std::vector<Doc>& elements() const;

  /// Element/member count for arrays/objects, 0 for scalars.
  std::size_t size() const noexcept;

  // --- scalar accessors (throw std::invalid_argument on kind mismatch) -
  bool as_bool() const;
  /// Integer accessors accept both integer kinds when the value fits.
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  /// Accepts any number kind.
  double as_double() const;
  const std::string& as_string() const;

  /// Structural equality, with numbers compared by value across integer
  /// and double kinds (an integral double that round-trips through JSON
  /// re-parses as an integer and must still compare equal).
  bool operator==(const Doc& other) const;
  bool operator!=(const Doc& other) const { return !(*this == other); }

 private:
  [[noreturn]] void kind_error(const char* expected) const;

  Kind kind_;
  union {
    bool bool_;
    std::int64_t int_;
    std::uint64_t uint_;
    double double_ = 0.0;
  };
  std::string string_;
  std::vector<Doc> array_;
  std::vector<std::pair<std::string, Doc>> object_;
};

/// RFC 8259 string escaping: quotes, backslashes, the two-character
/// shortcuts (\b \f \n \r \t), \u00XX for remaining control characters.
/// Bytes >= 0x80 pass through untouched (UTF-8 stays UTF-8).
std::string json_escape(std::string_view s);

/// Exact double formatting shared by the JSON and CSV writers (%.17g:
/// shortest round-trippable-by-strtod form this toolchain prints).
std::string fmt_double_exact(double v);

/// Compact deterministic JSON: no whitespace, object keys in insertion
/// order, integers verbatim, doubles via fmt_double_exact. Non-finite
/// doubles serialize as null (JSON has no inf/nan).
std::string to_json(const Doc& doc);

/// Indented variant for human-facing reports (bench output).
std::string to_json_pretty(const Doc& doc, int indent = 2);

/// Strict parser for one complete JSON value; throws std::invalid_argument
/// with a position-annotated message on malformed input. \uXXXX escapes
/// (including surrogate pairs) decode to UTF-8. Integers that fit 64 bits
/// keep integer kind; everything else becomes a double. Arrays and
/// objects nest at most kMaxJsonDepth deep (idseval's own documents stay
/// under ten); deeper input is a parse error, not unbounded recursion.
inline constexpr std::size_t kMaxJsonDepth = 256;
Doc parse_json(std::string_view text);

/// True iff `line` is one complete JSON value (whitespace padding ok).
bool validate_json_line(std::string_view line) noexcept;

}  // namespace idseval::results
