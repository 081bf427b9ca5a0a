// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// depmatch_analyze — multi-pass whole-project static analysis: lock
// discipline, module layering, determinism rules, and the legacy
// textual rules. See tools/analyze/ for the passes and
// docs/static_analysis.md for the contract.

#include <iostream>

#include "tools/analyze/analyzer.h"

int main(int argc, char** argv) {
  depmatch_analyze::AnalyzerOptions opts;
  int rc = depmatch_analyze::ParseArgs(argc, argv, &opts, std::cerr);
  if (rc == -1) return depmatch_analyze::kExitClean;  // --help
  if (rc != depmatch_analyze::kExitClean) return rc;
  return depmatch_analyze::RunAnalyzer(opts, std::cout, std::cerr);
}
