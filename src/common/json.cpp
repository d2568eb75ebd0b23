#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace gridvc {

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON, offset " + std::to_string(i_) + ": " + what);
  }

  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                              s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default: return parse_number();
    }
  }

  static Json make_bool(bool b) {
    Json v;
    v.type = Json::Type::kBool;
    v.boolean = b;
    return v;
  }

  Json parse_object() {
    Json v;
    v.type = Json::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    Json v;
    v.type = Json::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    if (i_ == start) fail("expected a value");
    // The whole token must be one finite number: not "1-2", "1e" or 1e999.
    const std::string token = s_.substr(start, i_ - start);
    char* end = nullptr;
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v.number)) {
      fail("bad number '" + token + "'");
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

const Json* Json::get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = get(key);
  if (v == nullptr) throw ParseError("missing field '" + key + "'");
  return *v;
}

double Json::number_at(const std::string& key) const {
  const Json& v = at(key);
  if (v.type != Type::kNumber) throw ParseError("field '" + key + "' must be a number");
  return v.number;
}

const std::string& Json::string_at(const std::string& key) const {
  const Json& v = at(key);
  if (v.type != Type::kString) throw ParseError("field '" + key + "' must be a string");
  return v.str;
}

std::uint64_t Json::uint64_at(const std::string& key) const {
  const double v = number_at(key);
  constexpr double kTwoTo64 = 18446744073709551616.0;  // exact in a double
  if (!(v >= 0.0) || v >= kTwoTo64 || std::trunc(v) != v) {
    throw ParseError("field '" + key + "' must be an integer in [0, 2^64)");
  }
  return static_cast<std::uint64_t>(v);
}

Json parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}


}  // namespace gridvc
