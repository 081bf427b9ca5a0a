// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// CatalogTieredIndex: a metric-space tree over catalog entry signatures
// that lets SearchCatalog prune whole groups of entries with a single
// admissible bound evaluation, instead of one CatalogEntryBound per
// entry. This is the structure that takes corpus search from O(N) bound
// evaluations per query to ~O(log N + survivors) on corpora where most
// entries are far from the query (ROADMAP item 1: 10^5-10^6 tables).
//
// Structure: a balanced binary tree built by deterministic recursive
// median splits over two per-entry features (mean entropy, mean MI
// profile value). Each node covers a contiguous range of `entry_order`
// and carries a ClusterEnvelope: a small set of disjoint value intervals
// that jointly cover every member node entropy, and every member
// off-diagonal MI profile value, of every entry in the subtree, plus
// the width range and two degenerate-member flags.
//
// Admissibility: ClusterBound() relaxes CatalogEntryBound() one step
// further. The per-entry bound lets every query node pick its best
// entry node and every profile value its best partner *within that
// entry*; the cluster bound lets them pick the best covered value
// across the whole subtree. Both term families are unimodal in the
// target value (see BestTermAgainst in graph_catalog.cc), so the best
// achievable term against a union of intervals is attained at the
// clamp of the source value onto the nearest interval — computable by
// one binary search over the envelope. Since every member value lies
// inside the coverage, for maximized metrics the cluster term is >= the
// member term (coverage is a superset), and for minimized metrics <=;
// hence ClusterBound(node) dominates CatalogEntryBound(entry) for every
// entry in the subtree, in exact arithmetic. The same deterministic
// floating-point slack used by the entry bound absorbs ulp-level
// reassociation. Dominance is certified per-member in
// catalog_index_test.cc across every metric x cardinality mode.
//
// Degenerate members: an entry whose nodes have no off-diagonal profile
// (width <= 1) contributes flat zero structural terms, and an empty
// entry graph admits only the empty mapping; the `any_empty_profile` /
// `any_empty_graph` flags clamp the cluster bound so it still dominates
// those members' entry bounds.
//
// The index is a pure acceleration structure: search results with and
// without it are bit-identical (strict-inequality pruning against the
// monotone shared top-k threshold; a catalog without an index is
// searched as one leaf holding every entry).

#ifndef DEPMATCH_CORE_CATALOG_INDEX_H_
#define DEPMATCH_CORE_CATALOG_INDEX_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "depmatch/match/graph_signature.h"
#include "depmatch/match/matching.h"
#include "depmatch/match/metric.h"

namespace depmatch {

struct CatalogIndexOptions {
  // Maximum entries per leaf node; below this the tree stops splitting
  // and the search evaluates per-entry bounds directly.
  size_t leaf_size = 8;
  // Maximum coverage intervals per envelope side. More intervals give
  // tighter cluster bounds (better pruning) at a few doubles per node.
  size_t envelope_intervals = 8;
};

// A small disjoint-interval coverage of a value multiset: bounds holds
// lo0, hi0, lo1, hi1, ... ascending with hi_i < lo_{i+1}. Every member
// value lies inside some interval; intervals may cover values that do
// not occur (coarsening only loosens — never invalidates — the bound).
struct ClusterEnvelope {
  std::vector<double> entropy_bounds;
  std::vector<double> profile_bounds;
  // True if some member entry has nodes but no off-diagonal profile
  // (width 1): its structural terms are all exactly 0.
  bool any_empty_profile = false;
  // True if some member entry has no nodes at all: only the empty
  // mapping (sum 0) is achievable against it.
  bool any_empty_graph = false;
  size_t min_width = 0;
  size_t max_width = 0;
};

struct TieredIndexNode {
  // Covered range [begin, end) of CatalogTieredIndex::entry_order().
  size_t begin = 0;
  size_t end = 0;
  // Child node ids, or -1 for a leaf.
  int64_t left = -1;
  int64_t right = -1;
  ClusterEnvelope envelope;
};

class CatalogTieredIndex {
 public:
  CatalogTieredIndex() = default;

  // Builds the tree over `signatures` (one per catalog entry, indexed by
  // entry id). Deterministic in the signatures and options alone.
  static CatalogTieredIndex Build(const std::vector<const GraphSignature*>& signatures,
                                  const CatalogIndexOptions& options = {});

  bool empty() const { return nodes_.empty(); }
  size_t num_entries() const { return entry_order_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t root() const { return 0; }
  const TieredIndexNode& node(size_t id) const { return nodes_[id]; }
  // Permutation of entry ids; a node covers the contiguous slice
  // [node.begin, node.end) of this vector.
  const std::vector<size_t>& entry_order() const { return entry_order_; }

  // Admissible upper bound on the ranking key of matching `query`
  // against ANY entry in node `id`'s subtree (see file comment).
  double ClusterBound(size_t id, const GraphSignature& query,
                      const Metric& metric, Cardinality cardinality) const;

  // Widen-only refresh after one entry's signature changed in place
  // (the incremental-append path): walks the root-to-leaf path whose
  // ranges cover the entry's slot and widens each node's envelope to
  // additionally cover the new signature's values. Coverage stays a
  // superset of every member's values — including the entry's old ones,
  // which may no longer occur — so every cluster bound still dominates
  // and search results stay bit-identical to an un-indexed search; the
  // envelopes are merely looser than a fresh Build() would produce
  // (rebuild periodically to re-tighten). The entry keeps its slot in
  // the feature-split order, so repeated updates can also degrade
  // balance, never correctness. Returns false if `entry` is not indexed.
  bool UpdateEntry(size_t entry, const GraphSignature& signature,
                   const CatalogIndexOptions& options = {});

  // Reassembles an index from its serialized parts (sharded store).
  // Performs structural validation; returns an empty index on invalid
  // input (callers treat that as "no index").
  static CatalogTieredIndex FromParts(std::vector<size_t> entry_order,
                                      std::vector<TieredIndexNode> nodes);

 private:
  std::vector<size_t> entry_order_;
  std::vector<TieredIndexNode> nodes_;
};

// Deterministic floating-point safety slack shared by the per-entry
// bound (CatalogEntryBound) and the cluster bound. The derivations are
// exact in real arithmetic; in doubles the nearest-neighbor argument
// can be off by an ulp and summation order differs from the searchers'.
// A fixed function of the bound value keeps determinism, and the
// magnitude sits orders below any meaningful score separation.
inline double AdmissibleBoundSlack(double key_bound) {
  return key_bound + 1e-9 + 1e-12 * std::fabs(key_bound);
}

}  // namespace depmatch

#endif  // DEPMATCH_CORE_CATALOG_INDEX_H_
