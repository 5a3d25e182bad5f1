// The substrate boundary of the Euler-tour layer.
//
// The paper's HDT hierarchy (§2.2, §3) is agnostic to how each level's
// Euler tours are represented; only a small forest-level contract matters:
// batch link/cut of tree edges, per-vertex counter maintenance with
// component-wide sums, representative and connectivity queries, and the
// first-ℓ fetch primitives of Appendix 9. The `euler_tour_substrate`
// concept captures exactly that contract; `ett_forest` owns one concrete
// substrate chosen at runtime (options::substrate) and forwards to it
// with static dispatch, so the level structure and
// `batch_dynamic_connectivity` can select the tour representation per
// structure, and substrates can be benchmarked head-to-head on identical
// workloads (bench_substrates).
//
// Three substrates are provided:
//   * substrate::skiplist — `euler_tour_forest`, batch-parallel tours over
//     the phase-concurrent augmented skip list (Tseng et al. [62]); the
//     paper's own representation and the default.
//   * substrate::treap   — `treap_ett`, tours over sequence treaps
//     (Henzinger–King style); mutation batches are parallel join-based
//     bulk operations partitioned by tour, read-only batches fan out
//     across workers.
//   * substrate::blocked — `blocked_ett`, tours as circular lists of
//     cache-packed fixed-size blocks with per-block aggregates and O(1)
//     representative/count queries; the small-component specialist (De
//     Man et al. 2024), and the low-level half of the per-level substrate
//     policy (options::policy).
//
// Phase contract (both substrates): a batch mutation call is one exclusive
// phase; read-only queries (connected / find_rep / counts / fetch) may run
// concurrently with each other but never with a mutation. A mutation batch
// may itself fan work out across the scheduler's workers, so it must be
// issued from a single logical root task, and the batch preconditions
// below (distinct edges, acyclic link batches, present distinct cuts) are
// load-bearing for that internal parallelism — a substrate may partition
// the batch by the tours it touches and mutate those tours concurrently.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ett/ett_counts.hpp"
#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

/// Which Euler-tour representation backs a forest. Selected per structure
/// at construction (options::substrate).
enum class substrate : uint8_t {
  skiplist,  // batch-parallel augmented skip list (paper default)
  treap,     // sequence treaps (HDT-style)
  blocked,   // cache-packed block-linked tours (small-component specialist)
};

[[nodiscard]] const char* to_string(substrate s);
[[nodiscard]] std::optional<substrate> substrate_from_string(
    std::string_view name);

/// The vocabulary every substrate shares with its callers.
class ett_substrate {
 public:
  /// Opaque component representative: rep(u) == rep(v) iff u and v are in
  /// the same tree. Invalidated by any subsequent batch_link/batch_cut.
  using rep = const void*;

  // ------------------------------------------------------------------
  // Tagged singleton representatives. A vertex with no incident tree arc
  // at this level (its tour is a lone sentinel) reps as the odd value
  // (v << 1) | 1 — never a valid node address — in EVERY substrate. This
  // makes the rep independent of whether the vertex currently holds a
  // directory slot: activation/deactivation (which batch_add_counts may
  // perform) never changes any rep, preserving the contract above that
  // only batch_link/batch_cut invalidate representatives.
  // ------------------------------------------------------------------

  [[nodiscard]] static rep singleton_rep(vertex_id v) {
    return reinterpret_cast<rep>((static_cast<uintptr_t>(v) << 1) | 1u);
  }
  [[nodiscard]] static bool is_singleton_rep(rep r) {
    return (reinterpret_cast<uintptr_t>(r) & 1u) != 0;
  }
  [[nodiscard]] static vertex_id singleton_rep_vertex(rep r) {
    return static_cast<vertex_id>(reinterpret_cast<uintptr_t>(r) >> 1);
  }

  /// Adds (tree_delta, nontree_delta) to a vertex's incident-edge counters.
  struct count_delta {
    vertex_id v;
    int32_t tree_delta;
    int32_t nontree_delta;
  };
};

/// Conveniences written once over a substrate's own operations. Each
/// substrate derives from `ett_substrate_base<itself>` (CRTP), so the
/// calls below are direct.
template <typename Derived>
class ett_substrate_base : public ett_substrate {
 public:
  void link(edge e) { self().batch_link({&e, 1}); }
  void cut(edge e) { self().batch_cut({&e, 1}); }

  [[nodiscard]] uint32_t component_size(vertex_id v) const {
    return self().component_counts(v).vertices;
  }

  /// Lambda-friendly adapter for the raw for_each_tour_vertex of the
  /// contract (substrates re-expose it with a using-declaration).
  template <typename F>
  void for_each_tour_vertex(rep r, F&& f) const {
    using fn_t = std::remove_reference_t<F>;
    self().for_each_tour_vertex(
        r, [](void* ctx, vertex_id v) { (*static_cast<fn_t*>(ctx))(v); },
        static_cast<void*>(std::addressof(f)));
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

/// The forest-level contract of a substrate.
template <typename T>
concept euler_tour_substrate =
    std::derived_from<T, ett_substrate_base<T>> &&
    std::constructible_from<T, vertex_id, uint64_t> &&
    requires(T& f, const T& cf, vertex_id v, edge e, uint64_t want,
             size_t keep_bytes, std::span<const edge> es,
             std::span<const ett_substrate::count_delta> deltas,
             std::span<const std::pair<vertex_id, vertex_id>> queries,
             std::span<const vertex_id> vs, ett_substrate::rep r,
             void (*fn)(void* ctx, vertex_id v), void* ctx) {
      { cf.num_vertices() } -> std::same_as<size_t>;
      { cf.num_edges() } -> std::same_as<size_t>;

      // ----------------------------------------------------------------
      // Updates (each call is one exclusive mutation phase)
      // ----------------------------------------------------------------

      /// Adds `es` to the forest. Preconditions: no self loops, edges
      /// distinct (as undirected pairs), not already present, and the
      /// batch keeps the graph acyclic (the caller runs a spanning-forest
      /// pass first; Algorithms 2, 4, 5 all guarantee this).
      f.batch_link(es);
      /// Removes `es`, which must all be present tree edges (distinct).
      f.batch_cut(es);
      /// Applies counter deltas (one entry per vertex at most) and repairs
      /// the component-wide augmentation.
      f.batch_add_counts(deltas);

      // ----------------------------------------------------------------
      // Queries (read-only phases)
      // ----------------------------------------------------------------

      { cf.has_edge(e) } -> std::same_as<bool>;
      { cf.connected(v, v) } -> std::same_as<bool>;
      { cf.batch_connected(queries) } -> std::same_as<std::vector<bool>>;

      { cf.find_rep(v) } -> std::same_as<ett_substrate::rep>;
      {
        cf.batch_find_rep(vs)
      } -> std::same_as<std::vector<ett_substrate::rep>>;

      /// Component-wide augmented sums for v's tree.
      { cf.component_counts(v) } -> std::same_as<ett_counts>;
      /// The per-vertex stored counters (not component sums). For
      /// validation.
      { cf.vertex_counts(v) } -> std::same_as<ett_counts>;

      /// Fetches, in tour order, vertices covering the first `want`
      /// incident non-tree (resp. tree) edge slots of v's component. Each
      /// result entry (x, c) means "take c edges from x's level-i
      /// non-tree (tree) adjacency list". Sum of takes == min(want,
      /// component total). (Appendix 9.)
      {
        cf.fetch_nontree(v, want)
      } -> std::same_as<std::vector<std::pair<vertex_id, uint32_t>>>;
      {
        cf.fetch_tree(v, want)
      } -> std::same_as<std::vector<std::pair<vertex_id, uint32_t>>>;

      /// All vertices of v's component, in tour order (diagnostics /
      /// tests).
      { cf.component_vertices(v) } -> std::same_as<std::vector<vertex_id>>;

      /// Invokes `fn(ctx, v)` once per vertex of the component whose
      /// representative is `r` (obtained from find_rep / batch_find_rep
      /// in the same read phase), in tour order. O(component size) with
      /// substrate-specific constants: the blocked substrate streams its
      /// packed 512-byte block chain (one block scan per kBlockCap
      /// entries), the treap and skip list walk their tours node by node.
      /// This is the enumeration primitive behind incremental snapshot
      /// publishing — a touched component can be relabelled without a
      /// global O(n) scan.
      cf.for_each_tour_vertex(r, fn, ctx);

      /// Deep structural validation (tests). Empty string if healthy.
      { cf.check_consistency() } -> std::same_as<std::string>;

      // ----------------------------------------------------------------
      // Memory accounting (ROADMAP "pool sizing / trimming"). pool_stats
      // and trim_pool require the substrate to be quiescent (no phase in
      // flight).
      // ----------------------------------------------------------------

      /// Counters of the substrate's node pool.
      { cf.pool_stats() } -> std::same_as<node_pool::stats_snapshot>;
      /// Vertices currently holding a slot in this forest's sparse vertex
      /// directory (activated by an edge touch at this level and not yet
      /// reclaimed). Safe anytime (atomic counter).
      { cf.active_vertices() } -> std::same_as<uint64_t>;
      /// Bytes retained by the per-vertex directory (root table +
      /// chunks); excludes tour nodes, which pool_stats() accounts for.
      /// Safe anytime.
      { cf.directory_bytes() } -> std::same_as<size_t>;
      /// Releases retained pool memory where safe (see node_pool::trim),
      /// keeping up to `keep_bytes` of blocks as spares for the next
      /// burst; returns the number of bytes returned to the OS.
      { f.trim_pool(keep_bytes) } -> std::same_as<size_t>;
    };

// ------------------------------------------------------------------
// Read-side snapshot contract (epoch-based concurrent serving) — the
// optional part of the substrate contract.
//
// With an epoch_manager bound via bind_read_epochs, the substrate must
// (a) route every free of reader-reachable memory through the epoch
// limbo (node_pool::reclaim), and (b) publish reader-visible pointer
// updates with release stores so a pinned reader never follows a torn
// path. Such a substrate answers connected_relaxed with plain acquire
// loads WHILE a mutation batch runs; such an answer is only meaningful
// after the caller revalidates a version/seqlock it brackets around the
// read (the batch_dynamic_connectivity service layer does exactly that
// and discards answers that overlapped a batch). For substrates without
// relaxed-read support `ett_forest` answers nullopt, ignores epoch
// binding and drains nothing, and concurrent readers are served from the
// service's published immutable snapshot instead — a raw concurrent
// find_rep walk on a pointer structure can resolve u via a stale path
// and v via a fresh one to the same representative, producing an answer
// matching NEITHER the pre- nor the post-batch state.
// ------------------------------------------------------------------

template <typename T>
concept relaxed_read_substrate =
    euler_tour_substrate<T> &&
    requires(T& f, const T& cf, vertex_id v, epoch_manager* em) {
      /// Concurrent-read connectivity probe; see the contract above.
      { cf.connected_relaxed(v, v) } -> std::same_as<std::optional<bool>>;
      /// Routes future frees of reader-reachable nodes through `em`'s
      /// limbo (nullptr restores immediate frees once drained).
      f.bind_read_epochs(em);
      /// Frees limbo nodes no pinned reader can observe
      /// (mutation-quiescent callers only). Returns the number reclaimed.
      { f.drain_limbo() } -> std::same_as<size_t>;
    };

}  // namespace bdc
