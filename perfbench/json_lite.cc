#include "json_lite.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Document(Json* out) {
    SkipSpace();
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth || pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->str);
    }
    if (c == 't' || c == 'f') {
      out->type = Json::Type::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->type = Json::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(Json* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::strchr("+-0123456789.eE", s_[pos_]) != nullptr) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = Json::Type::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end == token.c_str() + token.size();
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool Hex4(unsigned* cp) {
    if (pos_ + 4 > s_.size()) return false;
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      v <<= 4;
      if (h >= '0' && h <= '9') {
        v |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        v |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        v |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    *cp = v;
    return true;
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!Hex4(&cp)) return false;
          if (cp >= 0xD800 && cp < 0xDC00) {
            unsigned low = 0;
            if (!Literal("\\u") || !Hex4(&low) || low < 0xDC00 ||
                low >= 0xE000) {
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp < 0xE000) {
            return false;
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Array(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kArray;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return false;
    }
  }

  bool Object(Json* out, int depth) {
    ++pos_;
    out->type = Json::Type::kObject;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      SkipSpace();
      out->members.emplace_back(std::move(key), Json());
      if (!Value(&out->members.back().second, depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return false;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Get(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::NumberOr(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

bool ParseJson(std::string_view text, Json* out) {
  *out = Json();
  return Parser(text).Document(out);
}

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace perfbench
