// Cache-packed block-linked Euler tours — the blocked substrate
// (substrate::blocked; De Man, Łącki & Dhulipala 2024 report
// sequence-compressed / block-linked tour representations winning
// decisively at small component sizes, which is exactly the regime the
// HDT hierarchy's low levels live in).
//
// Each tree's Euler tour is a CIRCULAR doubly-linked list of fixed-size
// blocks; a block packs up to kBlockCap 8-byte tour entries (one sentinel
// per vertex, one entry per directed arc of each tree edge) contiguously,
// so walking a tour is a streaming scan instead of a pointer chase per
// element. Every block carries the aggregate HDT counters of the
// sentinels it holds, and a per-tour descriptor carries the
// component-wide sums — so `find_rep`, `connected`, `component_counts`
// and `batch_add_counts` are all O(1) per element (vs O(lg n) for the
// skip-list and treap substrates), and the first-ℓ fetch walk prunes
// whole blocks by their aggregates.
//
// Mutations are splice-based: `link` splits at most three blocks (after
// the host's sentinel, before the guest's sentinel) and splices the
// guest's block chain plus two packed arc entries into the host's cycle,
// relabelling only the smaller side's blocks; `cut` isolates the edge's
// two arcs at block boundaries and re-closes the two halves of the cycle
// into separate tours. B-tree-style local rebalancing (merge or borrow
// from the successor block) restores the occupancy invariant — every
// block of a multi-block tour holds at least kMinFill entries — so tours
// stay packed under arbitrary link/cut churn. The price of O(1) queries
// is that merging or splitting a tour relabels the smaller side's block
// owners, i.e. O(size/B) per mutation; on the small components the
// blocked substrate targets this linear term is cheaper in practice than
// the polylogarithmic pointer structures it replaces, and the per-level
// substrate policy (options::policy) keeps it away from the huge
// top-level components.
//
// Batch mutations follow the treap substrate's phase structure: a
// read-only phase resolves every touched tour, the batch is partitioned
// into groups touching disjoint tours, and groups proceed concurrently
// under the scheduler (arc-map writes stay phase-safe: placeholders are
// inserted up front, groups only update values of their own keys).
// Read-only batch queries fan out across workers unconditionally.
//
// Blocks and tour descriptors come from the shared per-worker pool
// (util/node_pool.hpp): cut blocks are recycled by later links, and an
// emptied forest can return every block to the OS via trim_pool().
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ett/ett_substrate.hpp"
#include "ett/link_partition.hpp"
#include "ett/vertex_directory.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

class blocked_ett final : public ett_substrate_base<blocked_ett> {
 public:
  /// Entries per block: sized so one block (header + payload) is 512
  /// bytes — eight cache lines the hardware prefetcher streams through.
  static constexpr uint32_t kBlockCap = 59;
  /// Occupancy floor for blocks of multi-block tours; single-block tours
  /// are exempt (a 2-vertex tree has only 4 entries).
  static constexpr uint32_t kMinFill = kBlockCap / 4;

  explicit blocked_ett(vertex_id n, uint64_t seed = 0xb10c);
  ~blocked_ett();

  blocked_ett(const blocked_ett&) = delete;
  blocked_ett& operator=(const blocked_ett&) = delete;

  [[nodiscard]] size_t num_vertices() const { return n_; }
  [[nodiscard]] size_t num_edges() const { return arcs_.size(); }

  void batch_link(std::span<const edge> links);
  void batch_cut(std::span<const edge> cuts);
  void batch_add_counts(std::span<const count_delta> deltas);

  [[nodiscard]] bool has_edge(edge e) const {
    return arcs_.contains(edge_key(e.canonical()));
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

  /// Structural validation (tests): block chain coherence, occupancy
  /// bounds, aggregate sums, tour orientation (closed Euler walk), and
  /// registration of every sentinel and arc. Empty string if healthy.
  [[nodiscard]] std::string check_consistency() const;

  [[nodiscard]] node_pool::stats_snapshot pool_stats() const {
    return pool_.stats();
  }
  size_t trim_pool(size_t keep_bytes = 0) {
    return pool_.trim(keep_bytes);
  }
  [[nodiscard]] uint64_t active_vertices() const {
    return dir_.active_count();
  }
  [[nodiscard]] size_t directory_bytes() const {
    return dir_.resident_bytes();
  }

  // Epoch-snapshot read contract (relaxed_read_substrate): the reader-visible
  // pointer chain — directory chunk (vertex -> slot), slot vloc (vertex
  // -> block) and block::owner (block -> tour descriptor) — is all
  // atomics; every writer-side update is a release store and every
  // concurrent-read load is an acquire, so connected_relaxed is a
  // torn-free probe usable WHILE a mutation batch runs (the caller must
  // still seqlock-validate: an answer that overlapped a batch can mix
  // pre- and post-batch paths). With epochs bound, freed blocks, tour
  // descriptors AND directory chunks park in the pool's limbo instead of
  // being recycled, which is what makes the probe's dereference of a
  // just-unlinked block or just-swept chunk safe and rules out
  // descriptor-address ABA within a pinned epoch.
  [[nodiscard]] std::optional<bool> connected_relaxed(
      vertex_id u, vertex_id v) const;
  void bind_read_epochs(epoch_manager* em) { pool_.bind_epochs(em); }
  size_t drain_limbo() { return pool_.drain_limbo(); }

  /// Packing diagnostics for the occupancy tests.
  struct block_stats {
    size_t tours = 0;    // multi-vertex components
    size_t blocks = 0;   // blocks across all tours
    size_t entries = 0;  // tour entries across all tours
    uint32_t min_fill = 0;  // smallest block of any multi-block tour
    uint32_t max_fill = 0;
  };
  [[nodiscard]] block_stats debug_block_stats() const;

 private:
  struct tour;
  struct block;
  /// Per-ACTIVE-vertex state, held in the sparse directory: the vertex's
  /// HDT counters (vertices == 1) and the block holding its sentinel
  /// (null while the vertex has no incident tree edge at this level).
  /// vloc is atomic (release-published) for the concurrent-read probe;
  /// writer-side code reads it relaxed (phase-exclusive). Slot addresses
  /// are stable for the lifetime of their chunk (vertex_directory never
  /// moves slots).
  struct vslot {
    ett_counts own;
    std::atomic<block*> vloc{nullptr};
  };
  /// Fixed-capacity block list for per-splice seam bookkeeping (one
  /// splice creates a bounded number of seam blocks, so rebalance
  /// candidates and merge-freed blocks never exceed the inline
  /// capacity). Avoids a heap allocation per link/cut.
  struct seam_blocks;
  /// Blocks holding an edge's two directed arc entries (fwd = the arc
  /// (c.u, c.v) of the canonical edge c). Entries move between blocks
  /// only on split/merge/borrow, which re-registers them here.
  struct arc_loc {
    block* fwd = nullptr;
    block* rev = nullptr;
  };

  block* new_block(tour* owner);
  tour* new_tour();
  void free_block(block* b);
  void free_tour(tour* t);

  /// The directory slot of an active vertex (nullptr when inactive).
  [[nodiscard]] vslot* slot(vertex_id v) const { return dir_.find(v); }
  /// Activates v on first touch ({1,0,0} counters, no tour).
  vslot& ensure_slot(vertex_id v);
  /// Counters of a vertex known to be in a tour (slot must exist).
  [[nodiscard]] const ett_counts& own_of(vertex_id v) const;
  /// Reclaims v's slot when its last level-i edge has left (no tour, no
  /// counters). Call only from mutation phases, on v's own partition.
  void maybe_release_slot(vertex_id v, vslot& s);

  [[nodiscard]] tour* tour_of(vertex_id v) const;
  /// Materializes singleton v as a one-entry, one-block tour.
  tour* materialize(vertex_id v);
  /// Index of `tag` within b (must be present).
  [[nodiscard]] static uint32_t index_in_block(const block* b, uint64_t tag);
  /// Recomputes b's aggregate from its entries.
  void recompute_agg(block* b) const;
  /// Points every entry of b's location record (vloc_ / arcs_) at b.
  void reregister(block* b);
  /// Ensures a block boundary before index i of b (0 <= i <= count);
  /// returns the block that begins with b's old entry i (b itself when
  /// i == 0, b's successor when i == count).
  block* split_at(block* b, uint32_t i);
  /// Restores the occupancy floor for b by merging with or borrowing
  /// from its successor; blocks freed by merges are appended to `dead`.
  void rebalance(block* b, seam_blocks& dead);
  /// Rebalances every distinct candidate block that is still alive
  /// (merges may free a later candidate — `dead` tracks those).
  void rebalance_candidates(const seam_blocks& cands, seam_blocks& dead);
  /// Appends `m` tags at the end of b (room must exist).
  void append_entries(block* b, const uint64_t* tags, uint32_t m);
  /// Inserts one tag at the front of b (room must exist).
  void prepend_entry(block* b, uint64_t tag);
  /// Records which block holds each directed arc of edge e.
  void set_arc_blocks(edge e, block* fwd_holder, block* rev_holder);
  /// Collapses a 1-entry tour back to the implicit singleton form.
  void collapse_singleton(tour* t, seam_blocks& dead);

  void link_one(vertex_id u, vertex_id v);
  void cut_one(edge e);
  void add_counts_one(const count_delta& d);

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_counted(
      vertex_id v, uint64_t want, bool nontree) const;

  /// Batches below this size (or a 1-worker pool) skip the grouping
  /// machinery and run the sequential splice loop.
  static constexpr size_t kParallelMutationCutoff = 16;

  /// Scratch buffers reused across bulk-mutation calls (mutation phases
  /// are exclusive, so reuse is race-free). The low levels of a mixed
  /// policy see the most frequent small batches, so the per-batch
  /// allocations matter here just as they did for the treap (PR 3's
  /// shattered-batch constant).
  struct mutation_scratch {
    std::vector<uintptr_t> rep_u, rep_v;
    link_partition_scratch<uintptr_t> part;
    std::vector<uint64_t> keys;
  };
  mutation_scratch scratch_;

  vertex_id n_;
  phase_concurrent_map<arc_loc> arcs_;  // per canonical tree edge
  node_pool pool_;  // declared before dir_: chunks are pool storage
  // Sparse per-vertex state: a vertex holds a slot only while an edge at
  // this level touches it; tourless vertices rep as singleton_rep(v), so
  // activation/deactivation never moves a representative.
  vertex_directory<vslot> dir_;
};

static_assert(euler_tour_substrate<blocked_ett>);
static_assert(relaxed_read_substrate<blocked_ett>);

}  // namespace bdc
