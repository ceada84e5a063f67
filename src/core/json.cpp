#include "core/json.hpp"

#include <cctype>
#include <cmath>
#include <iomanip>

#include "core/binio.hpp"
#include "core/error.hpp"

namespace wrsn {

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c);
          out += os.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::prefix() {
  if (stack_.empty()) {
    WRSN_REQUIRE(!started_, "JSON document already complete");
    started_ = true;
    return;
  }
  Scope& top = stack_.back();
  if (top.kind == 'o') {
    WRSN_REQUIRE(top.expecting_value, "JSON object values need a key first");
    top.expecting_value = false;
  } else {
    if (top.has_items) out_ << ',';
    top.has_items = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  prefix();
  out_ << '{';
  stack_.push_back({'o'});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  WRSN_REQUIRE(!stack_.empty() && stack_.back().kind == 'o',
               "end_object without matching begin_object");
  WRSN_REQUIRE(!stack_.back().expecting_value, "dangling key in JSON object");
  stack_.pop_back();
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prefix();
  out_ << '[';
  stack_.push_back({'a'});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  WRSN_REQUIRE(!stack_.empty() && stack_.back().kind == 'a',
               "end_array without matching begin_array");
  stack_.pop_back();
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  WRSN_REQUIRE(!stack_.empty() && stack_.back().kind == 'o',
               "keys are only valid inside objects");
  Scope& top = stack_.back();
  WRSN_REQUIRE(!top.expecting_value, "two keys in a row");
  if (top.has_items) out_ << ',';
  top.has_items = true;
  top.expecting_value = true;
  out_ << '"' << escape(name) << "\":";
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  prefix();
  out_ << '"' << escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  prefix();
  if (std::isfinite(v)) {
    out_ << std::setprecision(17) << v;
  } else {
    out_ << "null";  // JSON has no inf/nan
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  prefix();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  prefix();
  out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  prefix();
  out_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  prefix();
  out_ << "null";
  return *this;
}

std::string JsonWriter::str() const {
  WRSN_REQUIRE(complete(), "JSON document has unclosed scopes");
  return out_.str();
}

// ---------------------------------------------------------------------------
// Validating parser
// ---------------------------------------------------------------------------

namespace {

// Recursive-descent over RFC 8259. Tracks only position and an error
// message; values are validated, never materialized.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool run(std::string* error) {
    skip_ws();
    bool ok = value();
    if (ok) {
      skip_ws();
      if (pos_ != text_.size()) ok = fail("trailing characters after JSON value");
    }
    if (!ok && error != nullptr) *error = error_;
    return ok;
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r')) {
      ++pos_;
    }
  }

  bool fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool value() {
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      if (!string()) return false;
      skip_ws();
      if (at_end() || peek() != ':') return fail("expected ':' after key");
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool string() {
    ++pos_;  // opening '"'
    while (!at_end()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c == '\\') {
        ++pos_;
        if (at_end()) break;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + static_cast<std::size_t>(i) >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return fail("invalid \\u escape");
            }
          }
          pos_ += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return fail("invalid escape character");
        }
      }
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      return fail("invalid number");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digits must follow decimal point");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digits must follow exponent");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool json_validate(std::string_view text, std::string* error) {
  return JsonValidator(text).run(error);
}

namespace {

constexpr std::string_view kSumKey = ",\"sum\":\"";
constexpr std::size_t kSumDigits = 16;
// `,"sum":"` + 16 hex digits + `"}`.
constexpr std::size_t kSumSuffix = kSumKey.size() + kSumDigits + 2;

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(kSumDigits, '0');
  for (std::size_t i = kSumDigits; i-- > 0; v >>= 4) out[i] = kDigits[v & 0xf];
  return out;
}

}  // namespace

std::string json_with_checksum(std::string record) {
  WRSN_REQUIRE(!record.empty() && record.back() == '}',
               "checksummed record must be a JSON object");
  record.pop_back();
  const std::uint64_t sum = checksum64(record);
  record += kSumKey;
  record += hex16(sum);
  record += "\"}";
  return record;
}

std::optional<bool> json_checksum_ok(std::string_view line) {
  if (line.size() < kSumSuffix + 1 || !line.ends_with("\"}")) return std::nullopt;
  const std::size_t at = line.size() - kSumSuffix;
  if (line.substr(at, kSumKey.size()) != kSumKey) return std::nullopt;
  const std::string_view digits = line.substr(at + kSumKey.size(), kSumDigits);
  if (digits.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return std::nullopt;
  }
  return hex16(checksum64(line.substr(0, at))) == digits;
}

}  // namespace wrsn
