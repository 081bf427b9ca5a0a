// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared source-model utilities for depmatch_analyze: file loading,
// comment/string stripping (the passes never want to match inside a
// literal), line mapping, the suppression protocol, and small lexical
// helpers the passes build on. Everything here is dependency-free
// standard C++ — the analyzer must build with the stock gcc in the CI
// container, no libclang.

#ifndef DEPMATCH_TOOLS_ANALYZE_SOURCE_H_
#define DEPMATCH_TOOLS_ANALYZE_SOURCE_H_

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

namespace depmatch_analyze {

struct Finding {
  std::string file;  // path relative to --root
  size_t line = 0;   // 1-based; 0 = whole-file / whole-tree finding
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::filesystem::path path;
  std::string rel;   // relative to --root
  std::string raw;   // file bytes as read
  std::string code;  // raw with comments and string/char literals blanked
  std::vector<std::string> raw_lines;
  bool in_src = false;
  bool in_tests = false;
  bool is_header = false;
};

// Reads and preprocesses `path`. Returns false when the file cannot be
// read (the driver treats that as a tool error, not a finding).
bool LoadSourceFile(const std::filesystem::path& path,
                    const std::filesystem::path& root, SourceFile* out);

// Replaces the contents of //-comments, /* */-comments, and string/char
// literals (including raw strings) with spaces, preserving newlines so
// offsets map to the same lines as the raw text.
std::string StripCommentsAndStrings(const std::string& src);

std::vector<std::string> SplitLines(const std::string& text);

size_t LineOfOffset(const std::string& text, size_t offset);

// The sentinel comment marking a file documented bit-identical at any
// thread count. Assembled at runtime so the analyzer's own sources do
// not satisfy a raw-text search for it.
std::string SentinelMarker();

// True when the finding on `line` is suppressed by an allow-marker on
// that line or the one above (`depmatch-analyze: allow(<rule>)`).
bool Suppressed(const std::vector<std::string>& raw_lines, size_t line,
                const std::string& rule);

// Index of the '}' matching the '{' at `open`, or std::string::npos.
size_t MatchBrace(const std::string& code, size_t open);

// Index one past the ')' matching the '(' at `open`, or npos.
size_t MatchParen(const std::string& code, size_t open);

// Last identifier token in `text` ("" if none). Bracketed index
// expressions are ignored, so "impl_->sig_once[entry]" -> "sig_once".
std::string LastIdentifierIgnoringIndex(const std::string& text);

bool IsIdentChar(char c);
bool IsIdentStart(char c);

// Reads the identifier starting at `pos` ("" if none).
std::string ReadIdentifier(const std::string& code, size_t pos);

// JSON string escaping for the findings/architecture emitters.
std::string JsonEscape(const std::string& text);

}  // namespace depmatch_analyze

#endif  // DEPMATCH_TOOLS_ANALYZE_SOURCE_H_
