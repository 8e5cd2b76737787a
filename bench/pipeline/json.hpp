// Minimal JSON support for the benchmark: a reader for expected.json and a
// string escaper for the reports it writes. No dependency beyond the
// standard library.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace lpsram::bench {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  // Member lookup; throws std::runtime_error naming the key when this is not
  // an object or the key is absent.
  const JsonValue& at(const std::string& key) const;
  // The number; throws when this is not a number.
  double num() const;
};

// Parses one JSON document. Throws std::runtime_error with the byte offset
// on malformed input or trailing garbage.
JsonValue parse_json(const std::string& text);

// Reads and parses a file; throws std::runtime_error when it cannot be read.
JsonValue read_json_file(const std::string& path);

// `s` as a quoted JSON string literal.
std::string json_quote(const std::string& s);

}  // namespace lpsram::bench
