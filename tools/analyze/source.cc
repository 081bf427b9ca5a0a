// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/analyze/source.h"

#include <cctype>
#include <fstream>
#include <sstream>

namespace depmatch_analyze {

namespace fs = std::filesystem;

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string ReadIdentifier(const std::string& code, size_t pos) {
  if (pos >= code.size() || !IsIdentStart(code[pos])) return "";
  size_t end = pos;
  while (end < code.size() && IsIdentChar(code[end])) ++end;
  return code.substr(pos, end - pos);
}

std::string StripCommentsAndStrings(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;
  for (size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(src[i - 1]))) {
          size_t paren = src.find('(', i + 2);
          if (paren == std::string::npos) break;
          raw_delim = ")" + src.substr(i + 2, paren - (i + 2)) + "\"";
          for (size_t j = i; j <= paren; ++j) out[j] = ' ';
          i = paren;
          state = State::kRaw;
        } else if (c == '"' && (i == 0 || src[i - 1] != '\'')) {
          state = State::kString;
        } else if (c == '\'' && i > 0 && IsIdentChar(src[i - 1])) {
          // Digit separator (1'000'000), not a char literal.
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < src.size() && src[i + 1] != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < src.size() && src[i + 1] != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

size_t LineOfOffset(const std::string& text, size_t offset) {
  size_t line = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

std::string SentinelMarker() {
  // Assembled so this file does not itself contain the sentinel text.
  return std::string("depmatch-lint") + ": bit-identical-file";
}

namespace {

// "depmatch-analyze: allow(rule)", assembled at runtime so the
// analyzer's own sources never match.
bool LineAllows(const std::string& text, const std::string& rule) {
  const std::string marker =
      std::string("depmatch-analyze") + ": allow(" + rule + ")";
  return text.find(marker) != std::string::npos;
}

bool IsCommentOnlyLine(const std::string& text) {
  size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  return i + 1 < text.size() && text[i] == '/' && text[i + 1] == '/';
}

}  // namespace

bool Suppressed(const std::vector<std::string>& raw_lines, size_t line,
                const std::string& rule) {
  if (line == 0 || line > raw_lines.size()) return false;
  if (LineAllows(raw_lines[line - 1], rule)) return true;
  // Walk upward through a contiguous block of //-comment lines, so a
  // multi-line justification comment above the finding still counts.
  size_t i = line - 1;
  while (i > 0 && IsCommentOnlyLine(raw_lines[i - 1])) {
    if (LineAllows(raw_lines[i - 1], rule)) return true;
    --i;
  }
  return false;
}

size_t MatchBrace(const std::string& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') {
      ++depth;
    } else if (code[i] == '}') {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

size_t MatchParen(const std::string& code, size_t open) {
  int depth = 0;
  for (size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') {
      ++depth;
    } else if (code[i] == ')') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::string LastIdentifierIgnoringIndex(const std::string& text) {
  std::string flat;
  int bracket = 0;
  for (char c : text) {
    if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      if (bracket > 0) --bracket;
    } else if (bracket == 0) {
      flat.push_back(c);
    }
  }
  std::string last;
  for (size_t i = 0; i < flat.size(); ++i) {
    if (IsIdentStart(flat[i]) && (i == 0 || !IsIdentChar(flat[i - 1]))) {
      size_t end = i;
      while (end < flat.size() && IsIdentChar(flat[end])) ++end;
      last = flat.substr(i, end - i);
      i = end - 1;
    }
  }
  return last;
}

bool LoadSourceFile(const fs::path& path, const fs::path& root,
                    SourceFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  out->path = path;
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  out->rel = ec ? path.generic_string() : rel.generic_string();
  out->raw = buffer.str();
  out->code = StripCommentsAndStrings(out->raw);
  out->raw_lines = SplitLines(out->raw);
  out->in_src = out->rel.rfind("src/", 0) == 0;
  out->in_tests = out->rel.rfind("tests/", 0) == 0;
  out->is_header = path.extension() == ".h";
  return true;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

}  // namespace depmatch_analyze
