// The HDT level hierarchy (paper §2.2, §3 "Data Structures"): lg n levels,
// each holding a spanning forest F_i (a batch-parallel ETT) and per-level
// adjacency lists A_i, plus the global edge dictionary ED.
//
// Level i (0-based; the paper's level ℓ is i+1) may hold components of G_i
// of size at most cap(i) = 2^(i+1); new edges enter at the top level
// L-1 = ceil(lg n) - 1, and unsuccessful replacement candidates are pushed
// toward level 0. F_i contains every tree edge of level <= i.
//
// Levels are materialized lazily: a forest/adjacency object exists only
// once an edge or buffered insertion reaches that level, so workloads that
// never push deep pay nothing for the untouched levels.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adjacency/leveled_adjacency.hpp"
#include "ett/ett_forest.hpp"
#include "ett/ett_substrate.hpp"
#include "util/bits.hpp"
#include "util/types.hpp"

namespace bdc {

/// Per-level substrate mixing (ROADMAP "per-level substrate mixing"): low
/// levels hold components of at most 2^(i+1) vertices, so a cache-packed
/// sequential representation there can beat the pointer structures the
/// huge top-level components need. Levels strictly below `threshold` use
/// `low`; the rest use the structure's primary substrate. threshold <= 0
/// disables mixing. A policy whose `low` equals the primary substrate is
/// normalized to no-mixing at construction, so `mixed()` (and every A/B
/// label derived from it) never claims a configuration that is actually
/// uniform.
struct level_policy {
  int threshold = 0;
  bdc::substrate low = bdc::substrate::blocked;

  [[nodiscard]] bool mixed() const { return threshold > 0; }
  friend bool operator==(const level_policy&, const level_policy&) = default;
};

class level_structure {
 public:
  level_structure(vertex_id n, uint64_t seed,
                  bdc::substrate sub = substrate::skiplist,
                  level_policy policy = {});

  [[nodiscard]] vertex_id num_vertices() const { return n_; }
  [[nodiscard]] int num_levels() const {
    return static_cast<int>(levels_.size());
  }
  [[nodiscard]] int top() const { return num_levels() - 1; }
  /// Largest allowed component size of G_i at level i (Invariant 1).
  [[nodiscard]] uint64_t capacity(int level) const {
    return uint64_t{1} << (level + 1);
  }

  /// The primary Euler-tour representation (levels >= policy threshold).
  [[nodiscard]] bdc::substrate ett_substrate_kind() const {
    return substrate_;
  }
  /// The representation backing F_level under the active policy.
  [[nodiscard]] bdc::substrate substrate_at(int level) const {
    return level < policy_.threshold ? policy_.low : substrate_;
  }
  [[nodiscard]] const level_policy& policy() const { return policy_; }

  /// Aggregated node-pool counters across every materialized forest.
  [[nodiscard]] node_pool::stats_snapshot pool_stats() const;
  /// Hierarchy footprint (safe anytime: atomic counters + pool stats):
  /// materialized forest count, active directory slots summed across
  /// them, and the bytes those forests retain (sparse vertex directories
  /// plus pooled tour nodes). This is what the levels.* gauges report —
  /// with sparse activation it scales with the touched vertices per
  /// level, not with n * materialized levels.
  struct hierarchy_stats {
    uint64_t materialized = 0;
    uint64_t active_vertices = 0;
    uint64_t bytes = 0;
  };
  [[nodiscard]] hierarchy_stats footprint() const;
  /// Trims every materialized forest's pool (see node_pool::trim),
  /// keeping up to `keep_bytes` of spare blocks per forest; returns the
  /// total bytes released. Quiescence required.
  size_t trim_pools(size_t keep_bytes = 0);

  /// F_i; materializes it if needed. The returned ett_forest owns the
  /// concrete substrate, so hot paths can hoist dispatch with
  /// forest(i).visit(...).
  ett_forest& forest(int level);
  /// F_i if materialized, else nullptr (read paths).
  [[nodiscard]] const ett_forest* forest_if(int level) const {
    const auto& slot = levels_[static_cast<size_t>(level)].forest;
    return slot ? &*slot : nullptr;
  }
  [[nodiscard]] ett_forest* forest_if(int level) {
    auto& slot = levels_[static_cast<size_t>(level)].forest;
    return slot ? &*slot : nullptr;
  }

  leveled_adjacency& adj(int level);
  [[nodiscard]] const leveled_adjacency* adj_if(int level) const {
    return levels_[static_cast<size_t>(level)].adjacency.get();
  }

  edge_dict& dict() { return dict_; }
  [[nodiscard]] const edge_dict& dict() const { return dict_; }

  [[nodiscard]] const edge_record* record_of(edge e) const {
    return dict_.find(edge_key(e.canonical()));
  }
  [[nodiscard]] size_t num_edges() const { return dict_.size(); }

  // ------------------------------------------------------------------
  // Compound batch operations (each runs its own internal phases).
  // Every edge span must be canonical, deduplicated, non-self-loop.
  // ------------------------------------------------------------------

  /// Registers brand-new edges at `level`: dictionary records, adjacency
  /// entries, and ETT counters. Does NOT touch any forest (call link_tree
  /// for the tree subset).
  void add_edges(int level, std::span<const edge> es,
                 std::span<const uint8_t> is_tree);

  /// Links `es` (already-registered level-`level` tree edges, or buffered
  /// lower-level tree edges) into F_level.
  void link_tree(int level, std::span<const edge> es) {
    if (!es.empty()) forest(level).batch_link(es);
  }

  /// Fully deregisters edges: adjacency entries, counters, and dictionary
  /// records. Levels are read from the records (may be mixed). Does not
  /// touch forests.
  void remove_edges(std::span<const edge> es);

  /// Detaches level-`level` edges from their adjacency lists and counters
  /// but keeps their dictionary records (Algorithm 5's deferred pushes:
  /// the edges sit in limbo until insert_detached places them again).
  void detach_edges(int level, std::span<const edge> es);

  /// Re-attaches previously detached edges at `level` with their current
  /// is_tree status, updating records' level. Forest linking is separate.
  void insert_detached(int level, std::span<const edge> es);

  /// Moves attached level-`from` edges to level from-1: records,
  /// adjacency, counters. Tree edges are additionally linked into
  /// F_{from-1}. (Equivalent to detach + insert_detached + link.)
  void move_down(int from, std::span<const edge> es);

  /// Flips attached level-`level` non-tree edges to tree status (record,
  /// adjacency kind, counters). Forest linking is separate.
  void promote_to_tree(int level, std::span<const edge> es);

  /// Expands ETT fetch slots (vertex, take) into concrete edges from the
  /// per-vertex lists, preserving tour order; duplicates (an edge seen from
  /// both endpoints) are kept — callers dedupe as needed.
  void expand_fetch(int level, bool nontree,
                    std::span<const std::pair<vertex_id, uint32_t>> slots,
                    std::vector<edge>& out) const;

 private:
  struct level_state {
    std::optional<ett_forest> forest;
    std::unique_ptr<leveled_adjacency> adjacency;
  };

  /// Groups one incidence per edge endpoint and applies the adjacency op
  /// plus the matching ETT counter deltas at `level`.
  enum class adj_op { insert, erase, change_kind };
  void apply_adjacency(int level, std::span<const edge> es,
                       std::span<const uint8_t> is_tree, adj_op op);

  vertex_id n_;
  uint64_t seed_;
  bdc::substrate substrate_;
  level_policy policy_;
  std::vector<level_state> levels_;
  edge_dict dict_;
};

}  // namespace bdc
