// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "depmatch/service/snapshot.h"

namespace depmatch {
namespace service {

std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshot(
    uint64_t version, GraphCatalog catalog,
    const CatalogIndexOptions& index_options) {
  auto snapshot = std::make_shared<ServiceSnapshot>();
  snapshot->version = version;
  snapshot->catalog = std::move(catalog);
  if (!snapshot->catalog.empty() && snapshot->catalog.index() == nullptr) {
    snapshot->catalog.BuildIndex(index_options);
  }
  return snapshot;
}

}  // namespace service
}  // namespace depmatch
