#include "depmatch/nested/xml.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "depmatch/common/string_util.h"

namespace depmatch {
namespace nested {
namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) {
  return IsNameStart(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

// Converts element text to a scalar, inferring numerics like the CSV
// loader does.
NestedValue TextToScalar(const std::string& text) {
  auto as_int = ParseInt64(text);
  if (as_int.has_value()) return NestedValue::Int(*as_int);
  auto as_double = ParseDouble(text);
  if (as_double.has_value()) return NestedValue::Double(*as_double);
  return NestedValue::String(text);
}

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  // Parses the whole document; returns {root_tag: value}.
  Result<NestedValue> ParseDocument() {
    SkipMisc();
    if (AtEnd() || Peek() != '<') {
      return Error("expected a root element");
    }
    std::string tag;
    Result<NestedValue> root = ParseElement(tag, /*depth=*/1);
    if (!root.ok()) return root;
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    NestedValue wrapper = NestedValue::Object();
    wrapper.Set(std::move(tag), std::move(root).value());
    return wrapper;
  }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError(StrFormat(
        "XML parse error at offset %zu: %s", pos_, message.c_str()));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool StartsWith(std::string_view prefix) const {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  void SkipWhitespace() {
    while (!AtEnd() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  // Skips whitespace, comments, PIs/declarations, and DOCTYPE.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (StartsWith("<!--")) {
        size_t end = text_.find("-->", pos_ + 4);
        pos_ = end == std::string_view::npos ? text_.size() : end + 3;
        continue;
      }
      if (StartsWith("<?")) {
        size_t end = text_.find("?>", pos_ + 2);
        pos_ = end == std::string_view::npos ? text_.size() : end + 2;
        continue;
      }
      if (StartsWith("<!DOCTYPE")) {
        size_t end = text_.find('>', pos_);
        pos_ = end == std::string_view::npos ? text_.size() : end + 1;
        continue;
      }
      return;
    }
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStart(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  // Decodes entities in `raw` (the five predefined + decimal/hex refs).
  Result<std::string> DecodeText(std::string_view raw) {
    std::string out;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      size_t end = raw.find(';', i);
      if (end == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view entity = raw.substr(i + 1, end - i - 1);
      if (entity == "amp") {
        out += '&';
      } else if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else if (!entity.empty() && entity[0] == '#') {
        long code = 0;
        if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
          code = std::strtol(std::string(entity.substr(2)).c_str(),
                             nullptr, 16);
        } else {
          code = std::strtol(std::string(entity.substr(1)).c_str(),
                             nullptr, 10);
        }
        if (code <= 0 || code > 0x10ffff) {
          return Error("bad character reference");
        }
        // UTF-8 encode.
        unsigned cp = static_cast<unsigned>(code);
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
      } else {
        return Error(StrFormat("unknown entity '&%s;'",
                               std::string(entity).c_str()));
      }
      i = end;
    }
    return out;
  }

  // Adds `value` as member `name` of `parent`, collapsing repeats into
  // arrays.
  static void AddChild(NestedValue& parent, const std::string& name,
                       NestedValue value) {
    const NestedValue* existing = parent.Find(name);
    if (existing == nullptr) {
      parent.Set(name, std::move(value));
      return;
    }
    if (existing->kind() == NodeKind::kArray) {
      NestedValue array = *existing;
      array.Append(std::move(value));
      parent.Set(name, std::move(array));
      return;
    }
    NestedValue array = NestedValue::Array();
    array.Append(*existing);
    array.Append(std::move(value));
    parent.Set(name, std::move(array));
  }

  // Parses an element starting at '<'; returns its value and sets `tag`.
  // `depth` counts the open elements, this one included.
  Result<NestedValue> ParseElement(std::string& tag, size_t depth) {
    if (depth > kMaxNestingDepth) {
      return Error(
          StrFormat("nesting deeper than %zu levels", kMaxNestingDepth));
    }
    ++pos_;  // '<'
    Result<std::string> name = ParseName();
    if (!name.ok()) return name.status();
    tag = name.value();

    NestedValue element = NestedValue::Object();
    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '/' || Peek() == '>') break;
      Result<std::string> attr = ParseName();
      if (!attr.ok()) return attr.status();
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Error("expected '='");
      ++pos_;
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected a quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated attribute value");
      Result<std::string> decoded =
          DecodeText(text_.substr(start, pos_ - start));
      if (!decoded.ok()) return decoded.status();
      ++pos_;  // closing quote
      if (element.Find("@" + attr.value()) != nullptr) {
        return Error(
            StrFormat("duplicate attribute '%s'", attr.value().c_str()));
      }
      element.Set("@" + attr.value(),
                  TextToScalar(std::move(decoded).value()));
    }

    if (Peek() == '/') {
      ++pos_;
      if (AtEnd() || Peek() != '>') return Error("malformed self-close");
      ++pos_;
      return Finalize(std::move(element), "");
    }
    ++pos_;  // '>'

    // Content: text, children, CDATA, comments.
    std::string text;
    while (true) {
      if (AtEnd()) {
        return Error(StrFormat("unterminated element <%s>", tag.c_str()));
      }
      if (StartsWith("<![CDATA[")) {
        size_t end = text_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) {
          return Error("unterminated CDATA section");
        }
        text.append(text_.substr(pos_ + 9, end - pos_ - 9));
        pos_ = end + 3;
        continue;
      }
      if (StartsWith("<!--")) {
        size_t end = text_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          return Error("unterminated comment");
        }
        pos_ = end + 3;
        continue;
      }
      if (StartsWith("</")) {
        pos_ += 2;
        Result<std::string> closing = ParseName();
        if (!closing.ok()) return closing.status();
        if (closing.value() != tag) {
          return Error(StrFormat("mismatched close tag </%s> for <%s>",
                                 closing.value().c_str(), tag.c_str()));
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Error("malformed close tag");
        ++pos_;
        return Finalize(std::move(element), text);
      }
      if (Peek() == '<') {
        std::string child_tag;
        Result<NestedValue> child = ParseElement(child_tag, depth + 1);
        if (!child.ok()) return child;
        AddChild(element, child_tag, std::move(child).value());
        continue;
      }
      size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      Result<std::string> decoded =
          DecodeText(text_.substr(start, pos_ - start));
      if (!decoded.ok()) return decoded.status();
      text += decoded.value();
    }
  }

  // Folds collected text into the element: a childless, attribute-free
  // element with text becomes a scalar; otherwise non-blank text is kept
  // under "#text".
  static Result<NestedValue> Finalize(NestedValue element,
                                      const std::string& text) {
    std::string stripped(StripWhitespace(text));
    if (element.object_size() == 0) {
      if (stripped.empty()) return NestedValue::Null();
      return TextToScalar(stripped);
    }
    if (!stripped.empty()) {
      element.Set("#text", NestedValue::String(stripped));
    }
    return element;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<NestedValue> ParseXml(std::string_view text) {
  return XmlParser(text).ParseDocument();
}

Result<std::vector<NestedValue>> ParseXmlCollection(std::string_view text) {
  Result<NestedValue> document = ParseXml(text);
  if (!document.ok()) return document.status();
  // document = {root_tag: root_value}.
  if (document->object_size() != 1) {
    return InternalError("unexpected document wrapper shape");
  }
  const NestedValue& root = document->member_value(0);
  if (root.kind() != NodeKind::kObject) {
    return InvalidArgumentError(
        "collection root must contain child elements");
  }
  std::vector<NestedValue> documents;
  for (size_t m = 0; m < root.object_size(); ++m) {
    const std::string& name = root.member_name(m);
    if (!name.empty() && (name[0] == '@' || name[0] == '#')) {
      continue;  // root attributes/text are not documents
    }
    const NestedValue& member = root.member_value(m);
    if (member.kind() == NodeKind::kArray) {
      for (size_t i = 0; i < member.array_size(); ++i) {
        NestedValue wrapper = NestedValue::Object();
        wrapper.Set(name, member.array_element(i));
        documents.push_back(std::move(wrapper));
      }
    } else {
      NestedValue wrapper = NestedValue::Object();
      wrapper.Set(name, member);
      documents.push_back(std::move(wrapper));
    }
  }
  return documents;
}

Result<std::vector<NestedValue>> ReadXmlCollectionFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseXmlCollection(buffer.str());
}

}  // namespace nested
}  // namespace depmatch
