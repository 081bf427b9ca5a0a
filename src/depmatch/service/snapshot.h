// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// ServiceSnapshot: the immutable unit of catalog publication.
//
// The serving loop (service/match_service.h) never mutates a catalog in
// place. The daemon holds a shared_ptr<const ServiceSnapshot>; every
// request grabs that pointer once at execution start and works against
// it for its whole lifetime, so readers never block on writers and a
// response can name exactly the catalog state it was computed on
// (SearchResponse::snapshot_version). A write builds a *new* snapshot
// — copy, apply, index when needed, all outside any lock — and swaps
// the published pointer; in-flight requests keep the old snapshot alive
// through their shared_ptr until they finish. The copy shares every
// unchanged catalog entry with its predecessor (core/graph_catalog.h).

#ifndef DEPMATCH_SERVICE_SNAPSHOT_H_
#define DEPMATCH_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "depmatch/core/catalog_index.h"
#include "depmatch/core/graph_catalog.h"

namespace depmatch {
namespace service {

// One published catalog state. Immutable after construction: every
// member is set before the snapshot is shared and never written again,
// so concurrent readers need no synchronization beyond the shared_ptr.
struct ServiceSnapshot {
  // Monotonically increasing publication counter (1 = the snapshot the
  // service started with).
  uint64_t version = 0;
  // The catalog; a non-empty one always carries its tiered index.
  GraphCatalog catalog;
};

// Wraps `catalog` into an immutable snapshot, building the tiered index
// only when a non-empty catalog has none. A new entry's Insert clears
// the index, so the snapshot it publishes re-indexes; appends and
// replace-inserts go through GraphCatalog::UpdateEntry, which keeps the
// copied index live by widening one envelope path, so their snapshots
// skip the O(N log N) rebuild.
std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshot(
    uint64_t version, GraphCatalog catalog,
    const CatalogIndexOptions& index_options = {});

}  // namespace service
}  // namespace depmatch

#endif  // DEPMATCH_SERVICE_SNAPSHOT_H_
