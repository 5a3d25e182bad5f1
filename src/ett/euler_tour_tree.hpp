// Batch-parallel Euler tour trees (paper §2.1; Tseng et al. [62]) — the
// skip-list substrate (substrate::skiplist).
//
// Represents a forest over vertices [0, n) as a set of circular Euler-tour
// sequences stored in an augmented skip list. A tree's tour visits one node
// per vertex and one node per directed arc of each tree edge; linking and
// cutting reduce to batch splits and joins of the sequences.
//
// Cost (Theorem 2): a batch of k links, cuts, representative or connectivity
// queries costs O(k lg(1 + n/k)) expected work and O(lg n) depth w.h.p.
//
// The structure also carries the HDT augmentations: per-vertex counts of
// incident same-level tree and non-tree edges (set by the level structure
// via batch_add_counts), with component-wide sums and first-ℓ retrieval
// (Appendix 9's fetch primitives).
//
// Concurrent-read contract: like the treap, the skip list does not
// support relaxed reads (it is not a relaxed_read_substrate) — find_rep
// is a multi-level tower walk that can mix stale and fresh next-pointers
// under a concurrent mutation and land on a representative matching
// neither batch boundary. The epoch-snapshot serving layer answers
// concurrent readers from the release-published per-batch connectivity
// snapshot instead (see the read-side contract in ett_substrate.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ett/ett_counts.hpp"
#include "ett/ett_sequence.hpp"
#include "ett/ett_substrate.hpp"
#include "ett/vertex_directory.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "skiplist/augmented_skiplist.hpp"
#include "util/types.hpp"

namespace bdc {

class euler_tour_forest final
    : public ett_substrate_base<euler_tour_forest> {
 public:
  using skiplist = augmented_skiplist<ett_counts>;
  using node = skiplist::node;
  static_assert(ett_sequence<skiplist, ett_counts>,
                "the sequence backend must satisfy the ett_sequence concept");

  /// An empty forest (no edges) over n vertices.
  explicit euler_tour_forest(vertex_id n, uint64_t seed = 0xe77e77);

  euler_tour_forest(const euler_tour_forest&) = delete;
  euler_tour_forest& operator=(const euler_tour_forest&) = delete;

  [[nodiscard]] size_t num_vertices() const { return n_; }
  [[nodiscard]] size_t num_edges() const { return edge_map_.size(); }

  // ------------------------------------------------------------------
  // Updates (each call is one mutation phase)
  // ------------------------------------------------------------------

  void batch_link(std::span<const edge> links);
  void batch_cut(std::span<const edge> cuts);
  void batch_add_counts(std::span<const count_delta> deltas);

  // ------------------------------------------------------------------
  // Queries (read-only phases)
  // ------------------------------------------------------------------

  [[nodiscard]] bool has_edge(edge e) const {
    return edge_map_.contains(edge_key(e.canonical()));
  }
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const;
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> queries)
      const;

  [[nodiscard]] rep find_rep(vertex_id v) const;
  [[nodiscard]] std::vector<rep> batch_find_rep(
      std::span<const vertex_id> vs) const;

  [[nodiscard]] ett_counts component_counts(vertex_id v) const;
  [[nodiscard]] ett_counts vertex_counts(vertex_id v) const;

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_nontree(
      vertex_id v, uint64_t want) const;
  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_tree(
      vertex_id v, uint64_t want) const;

  [[nodiscard]] std::vector<vertex_id> component_vertices(
      vertex_id v) const;

  using ett_substrate_base::for_each_tour_vertex;
  void for_each_tour_vertex(rep r, void (*fn)(void* ctx, vertex_id v),
                            void* ctx) const;

  /// Verifies internal consistency (tests): tour circularity, augmentation
  /// sums, edge-map agreement. Returns empty string if healthy.
  [[nodiscard]] std::string check_consistency() const;

  [[nodiscard]] node_pool::stats_snapshot pool_stats() const {
    return list_.pool().stats();
  }
  size_t trim_pool(size_t keep_bytes = 0) {
    return list_.pool().trim(keep_bytes);
  }
  [[nodiscard]] uint64_t active_vertices() const {
    return dir_.active_count();
  }
  [[nodiscard]] size_t directory_bytes() const {
    return dir_.resident_bytes();
  }

 private:
  struct edge_nodes {
    node* fwd = nullptr;  // the arc (c.u, c.v) of the canonical edge c
    node* rev = nullptr;  // the arc (c.v, c.u)
  };

  /// The tour node of an active vertex, or nullptr (never touched by an
  /// edge at this level, or reclaimed since).
  [[nodiscard]] node* vertex_node(vertex_id v) const {
    node* const* p = dir_.find(v);
    return p == nullptr ? nullptr : *p;
  }
  /// Activates v (creating its singleton tour node) on first edge touch.
  /// Parallel-safe for distinct vertices (create_node is phase-safe).
  node* ensure_vertex(vertex_id v);
  /// Reclaims v's node + slot when its last level-i edge has left (lone
  /// level-0 circle, zero edge counters). Idempotent; mutation phases
  /// only, distinct vertices per worker.
  void maybe_release_vertex(vertex_id v);

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_counted(
      vertex_id v, uint64_t want, bool nontree) const;

  vertex_id n_;
  skiplist list_;  // declared before dir_: chunks ride the list's pool
  // Sparse per-vertex state: an active vertex's slot holds its tour node;
  // tourless vertices rep as singleton_rep(v), so activation/reclamation
  // never moves a representative.
  vertex_directory<node*> dir_;
  phase_concurrent_map<edge_nodes> edge_map_;
};

static_assert(euler_tour_substrate<euler_tour_forest>);

}  // namespace bdc
