// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "tools/analyze/analyzer.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "tools/analyze/determinism_pass.h"
#include "tools/analyze/layer_pass.h"
#include "tools/analyze/legacy_pass.h"
#include "tools/analyze/lock_pass.h"
#include "tools/analyze/source.h"

namespace depmatch_analyze {

namespace {

namespace fs = std::filesystem;

// Fixture trees are only analyzed when --root points straight at them.
bool ShouldAnalyze(const fs::path& path, const fs::path& root) {
  fs::path ext = path.extension();
  if (ext != ".cc" && ext != ".h") return false;
  std::error_code ec;
  fs::path rel = fs::relative(path, root, ec);
  std::string s = ec ? path.string() : rel.string();
  return s.find("lint_fixtures") == std::string::npos &&
         s.find("analyze_fixtures") == std::string::npos;
}

void WalkDir(const fs::path& dir, const fs::path& root,
             std::vector<fs::path>* files) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec) && ShouldAnalyze(it->path(), root)) {
      files->push_back(it->path());
    }
  }
}

std::string FindingsJson(const std::vector<Finding>& findings,
                         size_t files_checked) {
  std::ostringstream out;
  out << "{\n  \"files_checked\": " << files_checked << ",\n";
  out << "  \"finding_count\": " << findings.size() << ",\n";
  out << "  \"findings\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
        << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
        << "\", \"message\": \"" << JsonEscape(f.message) << "\"}"
        << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

bool WriteFileOrFail(const std::string& path, const std::string& content,
                     std::ostream& err) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    err << "depmatch_analyze: cannot open '" << path << "' for writing\n";
    return false;
  }
  out << content;
  out.flush();
  if (!out.good()) {
    err << "depmatch_analyze: write to '" << path << "' failed\n";
    return false;
  }
  return true;
}

}  // namespace

int ParseArgs(int argc, char** argv, AnalyzerOptions* opts,
              std::ostream& err) {
  opts->root = fs::current_path();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        err << "depmatch_analyze: " << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--root") {
      const char* value = need_value("--root");
      if (value == nullptr) return kExitToolError;
      opts->root = value;
    } else if (arg == "--json") {
      opts->json = true;
    } else if (arg == "--json-out") {
      const char* value = need_value("--json-out");
      if (value == nullptr) return kExitToolError;
      opts->json_out = value;
    } else if (arg == "--emit-arch") {
      const char* value = need_value("--emit-arch");
      if (value == nullptr) return kExitToolError;
      opts->emit_arch = value;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: depmatch_analyze [--root DIR] [--json] [--json-out F]\n"
          << "                        [--emit-arch F] [file...]\n"
          << "Multi-pass static analysis of DIR/{src,tests,bench,tools}:\n"
          << "  lock discipline (DEPMATCH_GUARDED_BY / _ONCE, REQUIRES,\n"
          << "  EXCLUDES), module layering + include cycles, determinism\n"
          << "  rules, and the legacy textual rules.\n"
          << "Exit codes: 0 clean, 1 findings, 2 tool error.\n";
      return -1;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "depmatch_analyze: unknown flag '" << arg << "'\n";
      return kExitToolError;
    } else {
      opts->explicit_files.emplace_back(arg);
    }
  }
  std::error_code ec;
  opts->root = fs::absolute(opts->root, ec);
  if (ec || !fs::is_directory(opts->root)) {
    err << "depmatch_analyze: --root '" << opts->root.string()
        << "' is not a directory\n";
    return kExitToolError;
  }
  return kExitClean;
}

int RunAnalyzer(const AnalyzerOptions& opts, std::ostream& out,
                std::ostream& err) {
  const fs::path& root = opts.root;
  bool whole_tree = opts.explicit_files.empty();

  std::vector<fs::path> targets = opts.explicit_files;
  if (whole_tree) {
    WalkDir(root / "src", root, &targets);
    WalkDir(root / "tests", root, &targets);
    WalkDir(root / "bench", root, &targets);
    WalkDir(root / "tools", root, &targets);
    std::sort(targets.begin(), targets.end());
  }

  // The collect phase always covers src/ (annotations and registries
  // live in headers there), plus whatever is being checked.
  std::vector<fs::path> collect_paths;
  WalkDir(root / "src", root, &collect_paths);
  std::sort(collect_paths.begin(), collect_paths.end());

  std::vector<SourceFile> target_files(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    if (!LoadSourceFile(targets[i], root, &target_files[i])) {
      err << "depmatch_analyze: cannot read '" << targets[i].string()
          << "'\n";
      return kExitToolError;
    }
  }

  LegacyPass legacy;
  LockPass lock;
  DeterminismPass determinism;
  LayerPass layer;

  for (const fs::path& path : collect_paths) {
    SourceFile file;
    // src/ was walked a moment ago; a racing delete is a tool error.
    if (!LoadSourceFile(path, root, &file)) {
      err << "depmatch_analyze: cannot read '" << path.string() << "'\n";
      return kExitToolError;
    }
    legacy.Collect(file);
    lock.Collect(file);
    determinism.Collect(file);
  }
  // Explicit targets outside src/ may carry annotations too (fixtures).
  for (const SourceFile& file : target_files) {
    if (!file.in_src) {
      legacy.Collect(file);
      lock.Collect(file);
      determinism.Collect(file);
    }
  }

  std::vector<Finding> findings;
  for (const SourceFile& file : target_files) {
    legacy.Check(file, &findings);
    lock.Check(file, &findings);
    determinism.Check(file, &findings);
    layer.Check(file, &findings);
  }
  if (whole_tree) {
    determinism.CheckRequiredSentinels(target_files, &findings);
    layer.Finish(&findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });

  if (!opts.emit_arch.empty()) {
    if (!WriteFileOrFail(opts.emit_arch, layer.ArchitectureJson(), err)) {
      return kExitToolError;
    }
  }
  if (!opts.json_out.empty()) {
    if (!WriteFileOrFail(opts.json_out,
                         FindingsJson(findings, target_files.size()), err)) {
      return kExitToolError;
    }
  }
  if (opts.json) {
    out << FindingsJson(findings, target_files.size());
  } else {
    for (const Finding& f : findings) {
      err << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
          << "\n";
    }
    if (!findings.empty()) {
      err << findings.size() << " finding(s)\n";
    } else {
      out << "depmatch_analyze: " << target_files.size() << " files clean\n";
    }
  }
  return findings.empty() ? kExitClean : kExitFindings;
}

}  // namespace depmatch_analyze
