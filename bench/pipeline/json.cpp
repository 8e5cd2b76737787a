#include "json.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lpsram::bench {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        default: fail("unsupported escape");
      }
    }
  }

  JsonValue value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    JsonValue v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = JsonValue::Type::Object;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = string_body();
        expect(':');
        v.object[std::move(key)] = value();
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      v.type = JsonValue::Type::Array;
      if (consume(']')) return v;
      do {
        v.array.push_back(value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.type = JsonValue::Type::String;
      v.string = string_body();
    } else if (literal("true")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = JsonValue::Type::Bool;
    } else if (literal("null")) {
      v.type = JsonValue::Type::Null;
    } else {
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("expected a value");
      pos_ += static_cast<std::size_t>(end - begin);
      v.type = JsonValue::Type::Number;
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type != Type::Object) throw std::runtime_error("json: not an object");
  const auto found = object.find(key);
  if (found == object.end())
    throw std::runtime_error("json: missing key '" + key + "'");
  return found->second;
}

double JsonValue::num() const {
  if (type != Type::Number) throw std::runtime_error("json: not a number");
  return number;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).document();
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_json(text.str());
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace lpsram::bench
