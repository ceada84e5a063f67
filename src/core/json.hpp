#pragma once
// Minimal streaming JSON writer (objects, arrays, scalars, escaping) for
// machine-readable experiment output, plus a validating parser used to
// smoke-check the simulator's own emissions (telemetry documents, JSONL
// trace lines). Deliberately tiny: no DOM — results flow out of the
// simulator; the parser only answers "is this well-formed JSON?".

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace wrsn {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Key for the next value (objects only).
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  // Convenience: key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  // Finished document; valid once all scopes are closed.
  [[nodiscard]] std::string str() const;
  [[nodiscard]] bool complete() const { return stack_.empty() && started_; }

 private:
  void prefix();  // emits separators/indentation before a value or key
  static std::string escape(const std::string& s);

  std::ostringstream out_;
  // Scope stack: 'o' = object, 'a' = array; tracks whether the scope already
  // has at least one element (for comma placement).
  struct Scope {
    char kind;
    bool has_items = false;
    bool expecting_value = false;  // a key was just written
  };
  std::vector<Scope> stack_;
  bool started_ = false;
};

// Validates that `text` is exactly one well-formed JSON value (RFC 8259
// grammar: objects, arrays, strings with escapes, numbers, true/false/null),
// surrounded by optional whitespace. Returns true when valid; otherwise
// false, with a human-readable reason in *error when non-null.
[[nodiscard]] bool json_validate(std::string_view text,
                                 std::string* error = nullptr);

// Checksummed JSONL records. json_with_checksum takes one serialized object
// and appends a last field `"sum":"<16 hex digits>"`, the checksum64
// (core/binio.hpp) of the record's text before that field. json_checksum_ok
// recomputes it: nullopt when the line does not end in such a field, else
// whether it matches. Any change to the text, a flipped digit that still
// parses included, is caught.
[[nodiscard]] std::string json_with_checksum(std::string record);
[[nodiscard]] std::optional<bool> json_checksum_ok(std::string_view line);

}  // namespace wrsn
