#include "depmatch/nested/json.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "depmatch/common/string_util.h"

namespace depmatch {
namespace nested {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<NestedValue> ParseDocument() {
    SkipWhitespace();
    Result<NestedValue> value = ParseValue(/*depth=*/1);
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError(
        StrFormat("JSON parse error at offset %zu: %s", pos_,
                  message.c_str()));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) return false;
    pos_ += keyword.size();
    return true;
  }

  // `depth` counts the containers open around the value, itself
  // included when it is one.
  Result<NestedValue> ParseValue(size_t depth) {
    if (AtEnd()) return Error("unexpected end of input");
    char c = Peek();
    if ((c == '{' || c == '[') && depth > kMaxNestingDepth) {
      return Error(
          StrFormat("nesting deeper than %zu levels", kMaxNestingDepth));
    }
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      Result<std::string> text = ParseString();
      if (!text.ok()) return text.status();
      return NestedValue::String(std::move(text).value());
    }
    if (ConsumeKeyword("true")) return NestedValue::Bool(true);
    if (ConsumeKeyword("false")) return NestedValue::Bool(false);
    if (ConsumeKeyword("null")) return NestedValue::Null();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    return Error(StrFormat("unexpected character '%c'", c));
  }

  Result<NestedValue> ParseObject(size_t depth) {
    ++pos_;  // '{'
    NestedValue object = NestedValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected member name");
      Result<std::string> name = ParseString();
      if (!name.ok()) return name.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after member name");
      SkipWhitespace();
      Result<NestedValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      if (object.Find(name.value()) != nullptr) {
        return Error(
            StrFormat("duplicate member '%s'", name.value().c_str()));
      }
      object.Set(std::move(name).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume('}')) return object;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<NestedValue> ParseArray(size_t depth) {
    ++pos_;  // '['
    NestedValue array = NestedValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      SkipWhitespace();
      Result<NestedValue> element = ParseValue(depth + 1);
      if (!element.ok()) return element;
      array.Append(std::move(element).value());
      SkipWhitespace();
      if (Consume(']')) return array;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (AtEnd()) return Error("dangling escape");
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // Encode BMP code point as UTF-8 (surrogate pairs unsupported).
          if (code >= 0xd800 && code <= 0xdfff) {
            return Error("surrogate pairs are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Error(StrFormat("unknown escape '\\%c'", escape));
      }
    }
  }

  Result<NestedValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
    bool is_double = false;
    if (!AtEnd() && Peek() == '.') {
      is_double = true;
      ++pos_;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      auto parsed = ParseInt64(token);
      if (parsed.has_value()) return NestedValue::Int(*parsed);
      // Integer overflow: fall through to double.
    }
    auto parsed = ParseDouble(token);
    if (!parsed.has_value()) {
      return Error(StrFormat("bad number '%.*s'",
                             static_cast<int>(token.size()), token.data()));
    }
    return NestedValue::Double(*parsed);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<NestedValue> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

Result<std::vector<NestedValue>> ParseJsonLines(std::string_view text) {
  std::vector<NestedValue> documents;
  size_t line_number = 0;
  for (const std::string& line : SplitString(text, '\n')) {
    ++line_number;
    if (IsBlank(line)) continue;
    Result<NestedValue> document = ParseJson(line);
    if (!document.ok()) {
      return InvalidArgumentError(
          StrFormat("line %zu: %s", line_number,
                    document.status().message().c_str()));
    }
    documents.push_back(std::move(document).value());
  }
  return documents;
}

Result<std::vector<NestedValue>> ReadJsonLinesFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseJsonLines(buffer.str());
}

}  // namespace nested
}  // namespace depmatch
