// Algorithms 1-5 of the paper. Engineering notes:
//
// * All doubling searches run phase-synchronously across components: every
//   still-searching piece performs its 2^w-edge probe, then a barrier,
//   then all pushes/merges commit together. This realizes the paper's
//   parallel phases with the library's phase-concurrency contracts.
// * Pieces are identified by (seed vertex, F_level representative).
//   Representatives stay valid through an entire level search because F_i
//   is only restructured by promotions, which the simple engine commits
//   between rounds (after all rep reads) and the interleaved engine defers
//   to the end of the level (the paper's key structural idea).
#include "core/batch_connectivity.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "obs/telemetry.hpp"
#include "parallel/primitives.hpp"
#include "parallel/scheduler.hpp"
#include "sequence/parallel_sort.hpp"
#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"
#include "util/timer.hpp"

namespace bdc {

namespace {

/// Canonicalizes, dedupes, and drops self-loops and edges with an
/// endpoint outside [0, n). The range check is the public API's only
/// defense: an out-of-range id that slips through (e.g. from a truncated
/// or hand-edited stream file) would flow into batch_find_rep and index
/// past the substrates' sparse vertex directories (sized for ids < n).
std::vector<edge> sanitize(std::span<const edge> edges, vertex_id n) {
  std::vector<edge> clean(edges.size());
  parallel_for(0, edges.size(),
               [&](size_t i) { clean[i] = edges[i].canonical(); });
  clean = filter(clean, [n](const edge& e) {
    // Canonical form has u <= v, so v < n bounds both endpoints.
    return !e.is_self_loop() && e.v < n;
  });
  sort_unique(clean);
  return clean;
}

/// Deduplicates a canonical edge list (order not preserved).
void dedupe(std::vector<edge>& es) { sort_unique(es); }

}  // namespace

batch_dynamic_connectivity::batch_dynamic_connectivity(vertex_id n,
                                                       options opts)
    : opts_(opts),
      ls_(n, opts.seed, opts.substrate, opts.policy),
      top_forest_(&ls_.forest(ls_.top())) {
  if (opts_.concurrent_reads) {
    service_ = std::make_unique<service_state>();
    // Route the top forest's node frees through the epoch limbo: readers
    // probing connected_relaxed walk top-forest memory, so nothing they
    // can reach may be recycled until their epoch has passed. Lower
    // forests keep immediate frees — the read service never touches them.
    top_forest_->bind_read_epochs(&service_->epochs);
    // Views are valid from construction on (version 0); no previous
    // snapshot exists to share chunks with, so build from the full walk.
    publish_snapshot(/*force_full=*/true);
  }
}

std::string config_label(const options& opts) {
  std::string label = to_string(opts.substrate);
  if (opts.policy.mixed() && opts.policy.low != opts.substrate) {
    label += "+";
    label += to_string(opts.policy.low);
    label += "<" + std::to_string(opts.policy.threshold);
  }
  if (opts.concurrent_reads) label += "+serve";
  return label;
}

// ---------------------------------------------------------------------
// Epoch-snapshot read service
// ---------------------------------------------------------------------

batch_dynamic_connectivity::update_scope::update_scope(
    batch_dynamic_connectivity& owner)
    : owner_(owner) {
  if (owner_.service_ == nullptr) return;
  service_state& s = *owner_.service_;
  s.epochs.begin_write();
  owner_.touched_.clear();  // this batch's top-forest mutation endpoints
  // Seqlock entry: phase -> odd. acq_rel orders it before every mutation
  // store of the batch, so a reader that observed any of them must also
  // observe the odd phase on revalidation and discard its live probe.
  s.phase.fetch_add(1, std::memory_order_acq_rel);
}

batch_dynamic_connectivity::update_scope::~update_scope() {
  if (owner_.service_ != nullptr) {
    service_state& s = *owner_.service_;
    // Publish the post-batch snapshot BEFORE re-opening the live fast
    // path: readers arriving in this window fall back to the (already
    // fresh) snapshot.
    owner_.publish_snapshot(/*force_full=*/false);
    s.phase.fetch_add(1, std::memory_order_release);  // -> even
    {
      BDC_PHASE_SPAN(sp, "epoch.drain");
      // Epoch turnover: everything retired during this batch is stamped
      // with the pre-advance epoch, so after the advance a NEW reader can
      // never reach it, and the drains below free whatever no OLD reader
      // pins. Draining after the advance is also what makes the
      // overflow-pin path sound (see epoch_manager::pin).
      s.epochs.advance();
      s.epochs.end_write();  // drain_limbo asserts mutation quiescence
      s.epochs.drain();
      owner_.top_forest_->drain_limbo();
    }
#if BDC_TELEMETRY_ENABLED
    // Retention gauges: sampled once per batch, after the drains, so they
    // report what actually survives the batch (limbo that readers pin and
    // blocks the pool keeps).
    static obs::gauge& limbo_g =
        obs::metric_registry::global().get_gauge("epoch.limbo");
    static obs::gauge& blocks_g =
        obs::metric_registry::global().get_gauge("pool.retained_blocks");
    limbo_g.set(static_cast<int64_t>(s.epochs.limbo_size()));
    blocks_g.set(static_cast<int64_t>(owner_.pool_stats().blocks));
#endif
  }
#if BDC_TELEMETRY_ENABLED
  // Hierarchy footprint gauges: sampled once per batch regardless of the
  // read service, so reports and --metrics JSONL can show memory scaling
  // with per-level activity (sparse vertex directories) instead of with
  // n * materialized levels.
  static obs::gauge& mat_g =
      obs::metric_registry::global().get_gauge("levels.materialized");
  static obs::gauge& act_g =
      obs::metric_registry::global().get_gauge("levels.active_vertices");
  static obs::gauge& bytes_g =
      obs::metric_registry::global().get_gauge("levels.bytes");
  const level_structure::hierarchy_stats hs = owner_.ls_.footprint();
  mat_g.set(static_cast<int64_t>(hs.materialized));
  act_g.set(static_cast<int64_t>(hs.active_vertices));
  bytes_g.set(static_cast<int64_t>(hs.bytes));
#endif
}

void batch_dynamic_connectivity::publish_snapshot(bool force_full) {
  BDC_PHASE_SPAN(span_publish, "publish.snapshot");
  timer t;
  // Batch k runs with phase 2k-1 (odd); construction publishes at phase 0.
  const uint64_t version =
      (service_->phase.load(std::memory_order_relaxed) + 1) / 2;
  // `published` is only exchanged on this (writer) thread, so a relaxed
  // load sees the latest snapshot; readers never mutate it.
  const snapshot* prev =
      service_->published.load(std::memory_order_relaxed);
  snapshot* snap = nullptr;
  if (!force_full && prev != nullptr)
    snap = build_incremental_snapshot(version, *prev);
  if (snap == nullptr) {
    snap = build_full_snapshot(version);
    stats_.publishes_full++;
  }
  touched_.clear();
  stats_.snapshots_published++;
  stats_.publish_micros += static_cast<uint64_t>(t.elapsed_us());
  const snapshot* old =
      service_->published.exchange(snap, std::memory_order_acq_rel);
  if (old != nullptr) {
    // A pinned reader may still hold `old`; free it through the limbo.
    // Chunks cloned out by later versions are freed transitively here —
    // the retiring snapshot holds their last shared_ptr reference.
    service_->epochs.retire(
        const_cast<snapshot*>(old),
        [](void* p) { delete static_cast<snapshot*>(p); });
  }
}

batch_dynamic_connectivity::snapshot*
batch_dynamic_connectivity::build_full_snapshot(uint64_t version) const {
  auto* snap = new snapshot;
  snap->version = version;
  const size_t n = num_vertices();
  snap->n = static_cast<vertex_id>(n);
  const size_t nchunks =
      (n + snapshot::kChunkSize - 1) >> snapshot::kChunkLog;
  snap->labels.resize(nchunks);
  snap->sizes.resize(nchunks);
  std::vector<vertex_id> flat = components();
  std::vector<uint32_t> counts(n, 0);
  for (vertex_id l : flat) counts[l]++;
  parallel_for(0, nchunks, [&](size_t c) {
    // make_shared value-initializes, so a partially covered tail chunk
    // holds zeroes past n.
    auto lc = std::make_shared<snapshot::label_chunk>();
    auto sc = std::make_shared<snapshot::size_chunk>();
    const size_t base = c << snapshot::kChunkLog;
    const size_t cnt = std::min(snapshot::kChunkSize, n - base);
    std::copy_n(flat.begin() + static_cast<ptrdiff_t>(base), cnt,
                lc->begin());
    std::copy_n(counts.begin() + static_cast<ptrdiff_t>(base), cnt,
                sc->begin());
    snap->labels[c] = std::move(lc);
    snap->sizes[c] = std::move(sc);
  });
  return snap;
}

batch_dynamic_connectivity::snapshot*
batch_dynamic_connectivity::build_incremental_snapshot(
    uint64_t version, const snapshot& prev) {
  const size_t n = num_vertices();
  // Touched seeds -> distinct post-batch components (one seed per
  // representative). Every component whose membership changed this batch
  // contains an endpoint of a top-forest link/cut: cut edges seed both
  // halves of a split, and promoted replacements seed every reconnected
  // fragment (a replacement's endpoints were connected at its level
  // before the batch, so the fragments it rejoins were created by this
  // batch's cuts and are already seeded). Components not seeded kept
  // their membership, hence their label and size.
  sort_unique(touched_);
  auto reps = top_forest_->batch_find_rep(touched_);
  std::vector<std::pair<rep, vertex_id>> pieces(touched_.size());
  for (size_t i = 0; i < touched_.size(); ++i)
    pieces[i] = {reps[i], touched_[i]};
  sort_unique(pieces);
  size_t np = 0;  // dedupe by representative, keeping one seed per piece
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0 && pieces[i].first == pieces[i - 1].first) continue;
    pieces[np++] = pieces[i];
  }
  pieces.resize(np);

  // Touched-size estimate: when the batch moved more than a quarter of
  // the graph (shatter-everything deletes), the parallel full walk beats
  // chasing tours one by one — fall back.
  uint64_t est = 0;
  top_forest_->visit([&](auto& f) {
    for (const auto& [r, seed] : pieces)
      est += f.component_counts(seed).vertices;
  });
  if (est > n / 4) return nullptr;

  auto* snap = new snapshot;
  snap->version = version;
  snap->n = prev.n;
  snap->labels = prev.labels;  // chunk pointers shared; cloned on write
  snap->sizes = prev.sizes;

  // Clone-on-first-write per publish: a chunk with use_count() > 1 is
  // still shared with prev (or an older limbo snapshot) and must be
  // copied; one we already cloned this publish is solely ours. use_count
  // is reliable here because chunk shared_ptrs are only copied/dropped on
  // this writer thread (readers hold the snapshot*, never the chunks).
  auto label_slot = [&](vertex_id v) -> vertex_id& {
    auto& sp = snap->labels[v >> snapshot::kChunkLog];
    if (sp.use_count() > 1)
      sp = std::make_shared<snapshot::label_chunk>(*sp);
    return (*sp)[v & (snapshot::kChunkSize - 1)];
  };
  auto size_slot = [&](vertex_id l) -> uint32_t& {
    auto& sp = snap->sizes[l >> snapshot::kChunkLog];
    if (sp.use_count() > 1)
      sp = std::make_shared<snapshot::size_chunk>(*sp);
    return (*sp)[l & (snapshot::kChunkSize - 1)];
  };

  std::vector<vertex_id> verts;
  top_forest_->visit([&](auto& f) {
    for (const auto& [r, seed] : pieces) {
      verts.clear();
      f.for_each_tour_vertex(r, [&](vertex_id v) { verts.push_back(v); });
      vertex_id mn = verts[0];
      for (vertex_id v : verts) mn = std::min(mn, v);
      for (vertex_id v : verts) label_slot(v) = mn;
      size_slot(mn) = static_cast<uint32_t>(verts.size());
      stats_.publish_relabeled += verts.size();
    }
  });
  return snap;
}

std::vector<vertex_id>
batch_dynamic_connectivity::snapshot_view::components() const {
  // Sequential on purpose: this runs on reader threads, outside the
  // parallel scheduler's worker pool.
  std::vector<vertex_id> out(snap_->n);
  for (size_t c = 0; c < snap_->labels.size(); ++c) {
    const size_t base = c << snapshot::kChunkLog;
    const size_t cnt = std::min(snapshot::kChunkSize, out.size() - base);
    std::copy_n(snap_->labels[c]->begin(), cnt,
                out.begin() + static_cast<ptrdiff_t>(base));
  }
  return out;
}

batch_dynamic_connectivity::snapshot_view
batch_dynamic_connectivity::snapshot_query() const {
  assert(service_ != nullptr &&
         "snapshot_query requires options::concurrent_reads");
  // Pin FIRST, then load: the pin synchronizes with the latest advance
  // (seq_cst), so the loaded snapshot cannot already have left the limbo.
  epoch_manager::reader_guard guard = service_->epochs.pin();
  const snapshot* snap =
      service_->published.load(std::memory_order_acquire);
  return snapshot_view(this, std::move(guard), snap);
}

uint64_t batch_dynamic_connectivity::committed_version() const {
  assert(service_ != nullptr);
  return service_->published.load(std::memory_order_acquire)->version;
}

bool batch_dynamic_connectivity::snapshot_view::connected(
    vertex_id u, vertex_id v, uint64_t* state) const {
  if (u >= snap_->n || v >= snap_->n) {
    if (state != nullptr) *state = snap_->version;
    return false;
  }
  const service_state& s = *owner_->service_;
  // Live fast path: when no batch is in flight and the top forest
  // answers relaxed reads (blocked substrate; the others return
  // nullopt), probe it directly and seqlock-validate. A probe overlapped
  // by a batch is discarded — the release stores inside the batch pair
  // with the probe's acquire loads, forcing the revalidation to observe
  // the odd (or later) phase.
  uint64_t v1 = s.phase.load(std::memory_order_acquire);
  if ((v1 & 1) == 0) {
    std::optional<bool> live = owner_->top_forest_->connected_relaxed(u, v);
    if (live.has_value() &&
        s.phase.load(std::memory_order_acquire) == v1) {
      if (state != nullptr) *state = v1 >> 1;
      return *live;
    }
  }
  if (state != nullptr) *state = snap_->version;
  return snap_->label_of(u) == snap_->label_of(v);
}

// ---------------------------------------------------------------------
// Queries (Algorithm 1)
// ---------------------------------------------------------------------

bool batch_dynamic_connectivity::connected(vertex_id u, vertex_id v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  return ls_.forest_if(ls_.top())->connected(u, v);
}

std::vector<bool> batch_dynamic_connectivity::batch_connected(
    std::span<const std::pair<vertex_id, vertex_id>> queries) const {
  BDC_PHASE_SPAN(span_batch, "batch.connected");
  const vertex_id n = num_vertices();
  // n == 0 has no in-range probe to remap hostile queries onto (every id
  // is out of range), so answer directly.
  if (n == 0) return std::vector<bool>(queries.size(), false);
  std::atomic<bool> any_hostile{false};
  parallel_for(0, queries.size(), [&](size_t i) {
    if (queries[i].first >= n || queries[i].second >= n)
      any_hostile.store(true, std::memory_order_relaxed);
  });
  const ett_forest* top = ls_.forest_if(ls_.top());
  if (!any_hostile.load(std::memory_order_relaxed))
    return top->batch_connected(queries);
  // Slow path: remap out-of-range queries onto a harmless probe, then
  // overwrite their answers with the defined result (false).
  std::vector<std::pair<vertex_id, vertex_id>> safe(queries.begin(),
                                                    queries.end());
  parallel_for(0, safe.size(), [&](size_t i) {
    if (safe[i].first >= n || safe[i].second >= n) safe[i] = {0, 0};
  });
  auto out = top->batch_connected(safe);
  for (size_t i = 0; i < queries.size(); ++i)
    if (queries[i].first >= n || queries[i].second >= n) out[i] = false;
  return out;
}

size_t batch_dynamic_connectivity::component_size(vertex_id v) const {
  if (v >= num_vertices()) return 0;
  return ls_.forest_if(ls_.top())->component_size(v);
}

std::vector<vertex_id> batch_dynamic_connectivity::components() const {
  size_t n = num_vertices();
  const ett_forest* top = ls_.forest_if(ls_.top());
  std::vector<std::pair<uint64_t, vertex_id>> rep_vertex(n);
  // One dispatch for the whole scan; find_rep is a direct (and for the
  // blocked substrate O(1)) call inside the loop.
  top->visit([&](auto& f) {
    parallel_for(0, n, [&](size_t v) {
      rep_vertex[v] = {reinterpret_cast<uint64_t>(
                           f.find_rep(static_cast<vertex_id>(v))),
                       static_cast<vertex_id>(v)};
    });
  });
  auto groups = group_by_key(std::move(rep_vertex));
  std::vector<vertex_id> labels(n);
  parallel_for(0, groups.num_groups(), [&](size_t g) {
    uint32_t st = groups.group_starts[g], en = groups.group_starts[g + 1];
    vertex_id mn = kNoVertex;
    for (uint32_t i = st; i < en; ++i)
      mn = std::min(mn, groups.records[i].second);
    for (uint32_t i = st; i < en; ++i)
      labels[groups.records[i].second] = mn;
  });
  return labels;
}

// ---------------------------------------------------------------------
// Insertion (Algorithm 2)
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::batch_insert(std::span<const edge> edges) {
  // Declared before update_scope: destruction runs in reverse, so the
  // span also covers the scope destructor's publish + epoch drain.
  BDC_PHASE_SPAN(span_batch, "batch.insert");
  // Covers the whole batch including early returns, so every call commits
  // exactly one serving state (version parity stays in lockstep with the
  // caller's batch count).
  update_scope scope(*this);
  std::vector<edge> clean;
  {
    BDC_PHASE_SPAN(sp, "insert.sanitize");
    clean = sanitize(edges, num_vertices());
    clean = filter(clean, [&](const edge& e) { return !has_edge(e); });
  }
  size_t k = clean.size();
  stats_.batches_inserted++;
  stats_.edges_inserted += k;
  if (k == 0) return;

  int top = ls_.top();
  ett_forest& f = ls_.forest(top);

  // Contract current components and find which edges grow the forest.
  std::vector<vertex_id> endpoints(2 * k);
  parallel_for(0, k, [&](size_t i) {
    endpoints[2 * i] = clean[i].u;
    endpoints[2 * i + 1] = clean[i].v;
  });
  auto reps = f.batch_find_rep(endpoints);
  std::vector<rep> uniq(reps.begin(), reps.end());
  sort_unique(uniq);
  auto label_of = [&](rep r) {
    return static_cast<vertex_id>(
        std::lower_bound(uniq.begin(), uniq.end(), r) - uniq.begin());
  };
  std::vector<edge> contracted(k);
  parallel_for(0, k, [&](size_t i) {
    contracted[i] = {label_of(reps[2 * i]), label_of(reps[2 * i + 1])};
  });
  auto sf = spanning_forest(uniq.size(), contracted);

  std::vector<uint8_t> is_tree(k, 0);
  parallel_for(0, sf.tree_edge_indices.size(),
               [&](size_t i) { is_tree[sf.tree_edge_indices[i]] = 1; });

  // Register everything at the top level, then link the new tree edges.
  ls_.add_edges(top, clean, is_tree);
  std::vector<edge> tree_edges(sf.tree_edge_indices.size());
  parallel_for(0, tree_edges.size(), [&](size_t i) {
    tree_edges[i] = clean[sf.tree_edge_indices[i]];
  });
  // Inserted tree edges are the only top-forest mutations of this batch:
  // their endpoints seed the incremental snapshot publish.
  for (const edge& e : tree_edges) note_touched(e);
  ls_.link_tree(top, tree_edges);
}

// ---------------------------------------------------------------------
// Deletion (Algorithm 3)
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::batch_delete(std::span<const edge> edges) {
  BDC_PHASE_SPAN(span_batch, "batch.delete");  // see batch_insert
  update_scope scope(*this);
  std::vector<edge> clean;
  {
    BDC_PHASE_SPAN(sp, "delete.sanitize");
    clean = sanitize(edges, num_vertices());
    clean = filter(clean, [&](const edge& e) { return has_edge(e); });
  }
  size_t k = clean.size();
  stats_.batches_deleted++;
  stats_.edges_deleted += k;
  if (k == 0) return;

  // Capture tree edges and their levels before deregistration.
  std::vector<std::pair<int, edge>> tree_edges;  // (level, edge)
  {
    BDC_PHASE_SPAN(sp, "delete.deregister");
    std::vector<std::pair<int, edge>> all(k);
    parallel_for(0, k, [&](size_t i) {
      const edge_record* rec = ls_.record_of(clean[i]);
      all[i] = {rec->is_tree ? rec->level : -1, clean[i]};
    });
    tree_edges = filter(all, [](const std::pair<int, edge>& p) {
      return p.first >= 0;
    });
  }
  stats_.tree_edges_deleted += tree_edges.size();
  // Every deleted tree edge is cut from the top forest below; both
  // endpoints seed the incremental snapshot publish (one per split half).
  for (const auto& [lvl, e] : tree_edges) note_touched(e);

  {
    BDC_PHASE_SPAN(sp, "delete.deregister");
    // Deregister all deleted edges (adjacency, counters, dictionary).
    ls_.remove_edges(clean);
  }

  if (tree_edges.empty()) return;  // connectivity unchanged

  // Cut each deleted tree edge from every forest containing it:
  // F_level(e) .. F_top.
  int top = ls_.top();
  int minl = top;
  for (auto& [lvl, e] : tree_edges) minl = std::min(minl, lvl);
  {
    BDC_PHASE_SPAN(sp, "delete.cut");
    for (int i = minl; i <= top; ++i) {
      auto subset = filter(tree_edges, [&](const std::pair<int, edge>& p) {
        return p.first <= i;
      });
      std::vector<edge> es(subset.size());
      parallel_for(0, es.size(),
                   [&](size_t j) { es[j] = subset[j].second; });
      ls_.forest(i).batch_cut(es);
    }
  }

  // Seeds: endpoints of deleted tree edges, introduced at the level where
  // the edge was deleted.
  std::vector<std::vector<vertex_id>> seeds_by_level(
      static_cast<size_t>(top) + 1);
  for (auto& [lvl, e] : tree_edges) {
    seeds_by_level[static_cast<size_t>(lvl)].push_back(e.u);
    seeds_by_level[static_cast<size_t>(lvl)].push_back(e.v);
  }

  // Ascend, searching each level for replacement edges (Algorithms 4/5).
  std::vector<vertex_id> carried;
  std::vector<edge> buffered;  // S: new tree edges awaiting higher levels
  for (int i = minl; i <= top; ++i) {
    auto& sl = seeds_by_level[static_cast<size_t>(i)];
    carried.insert(carried.end(), sl.begin(), sl.end());
    sort_unique(carried);
    stats_.levels_searched++;
    BDC_PHASE_SPAN(sp, "delete.level_search");  // one span per level
    switch (opts_.search) {
      case level_search_kind::interleaved:
        level_search_interleaved(i, carried, buffered);
        break;
      case level_search_kind::simple:
        level_search_simple(i, carried, buffered, /*scan_all=*/false);
        break;
      case level_search_kind::scan_all:
        level_search_simple(i, carried, buffered, /*scan_all=*/true);
        break;
    }
  }
  // `buffered` now holds every replacement promoted at any level; all of
  // them were (or end the batch) linked into the top forest, so their
  // endpoints seed the reconnected components for the snapshot publish.
  for (const edge& e : buffered) note_touched(e);
}

// ---------------------------------------------------------------------
// Shared level-search machinery
// ---------------------------------------------------------------------

std::vector<batch_dynamic_connectivity::piece>
batch_dynamic_connectivity::resolve_pieces(
    int level, std::span<const vertex_id> seeds) const {
  const ett_forest* f = ls_.forest_if(level);
  assert(f != nullptr);
  auto reps = f->batch_find_rep(seeds);
  // Dedupe by representative, keeping one seed per piece.
  std::vector<std::pair<rep, vertex_id>> pairs(seeds.size());
  parallel_for(0, seeds.size(),
               [&](size_t i) { pairs[i] = {reps[i], seeds[i]}; });
  parallel_sort(pairs);
  std::vector<piece> out;
  out.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0 && pairs[i].first == pairs[i - 1].first) continue;
    out.push_back({pairs[i].second, pairs[i].first, 0, 0, 0});
  }
  f->visit([&](auto& fc) {
    parallel_for(0, out.size(), [&](size_t i) {
      ett_counts c = fc.component_counts(out[i].seed);
      out[i].size = c.vertices;
      out[i].nontree_slots = c.nontree_edges;
      out[i].tree_slots = c.tree_edges;
    });
  });
  return out;
}

void batch_dynamic_connectivity::push_tree_edges(
    int level, const std::vector<piece>& active) {
  if (level == 0 || active.empty()) return;
  ett_forest& f = ls_.forest(level);
  // Gather every level-`level` tree edge of every active piece.
  std::vector<std::vector<edge>> per_piece(active.size());
  parallel_for(
      0, active.size(),
      [&](size_t i) {
        if (active[i].tree_slots == 0) return;
        auto slots = f.fetch_tree(active[i].seed, active[i].tree_slots);
        ls_.expand_fetch(level, /*nontree=*/false, slots, per_piece[i]);
      },
      1);
  std::vector<edge> all = flatten(per_piece);
  dedupe(all);  // each edge appears once per endpoint
  stats_.edges_pushed += all.size();
  ls_.move_down(level, all);
}

std::vector<edge> batch_dynamic_connectivity::fetch_nontree_edges(
    int level, const piece& p, uint64_t want) const {
  auto slots = ls_.forest_if(level)->fetch_nontree(p.seed, want);
  std::vector<edge> raw;
  ls_.expand_fetch(level, /*nontree=*/true, slots, raw);
  // Dedupe preserving tour order (an edge internal to the piece shows up
  // under both endpoints).
  std::vector<edge> out;
  out.reserve(raw.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(raw.size() * 2);
  for (const edge& e : raw) {
    if (seen.insert(edge_key(e)).second) out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------
// Algorithm 4 (simple) and the scan-all ablation
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::level_search_simple(
    int level, std::span<const vertex_id> seeds, std::vector<edge>& buffered,
    bool scan_all) {
  ett_forest& f = ls_.forest(level);
  f.batch_link(buffered);  // line 2: commit lower-level discoveries

  uint64_t active_cap = ls_.capacity(level) / 2;
  auto pieces = resolve_pieces(level, seeds);
  std::vector<piece> active;
  for (auto& p : pieces)
    if (p.size <= active_cap) active.push_back(p);

  while (!active.empty()) {
    stats_.search_rounds++;
    // Line 5, re-applied each round: an active piece must have no level-i
    // tree edges before any of its non-tree edges are pushed, or pushed
    // edges would land below their connecting path (Invariant 2). After a
    // merge round this re-push moves the freshly promoted replacement
    // edges of still-active merged pieces down as well.
    push_tree_edges(level, active);
    size_t m = active.size();
    // Per-piece doubling, phase-synchronous across pieces.
    struct outcome {
      bool done = false;
      bool found = false;
      edge replacement{};
      uint64_t fetched = 0;
      std::vector<edge> to_push;
    };
    std::vector<outcome> res(m);
    uint32_t w = 0;
    BDC_PHASE_SPAN(span_search, "search.replacement");
    while (true) {
      std::atomic<bool> any_searching{false};
      stats_.doubling_phases++;
      parallel_for(0, m, [&](size_t i) {
        if (res[i].done) return;
        const piece& p = active[i];
        uint64_t cmax = p.nontree_slots;
        uint64_t csz = scan_all ? cmax
                                : std::min<uint64_t>(uint64_t{1} << w, cmax);
        auto ec = fetch_nontree_edges(level, p, csz);
        res[i].fetched += ec.size();
        // First replacement: endpoints in different pieces of F_level.
        // One dispatch for the whole probe scan (the per-element
        // connectivity checks are direct calls inside the visit arm).
        std::atomic<size_t> first{ec.size()};
        f.visit([&](auto& fc) {
          parallel_for(0, ec.size(), [&](size_t j) {
            if (!fc.connected(ec[j].u, ec[j].v)) {
              size_t cur = first.load(std::memory_order_relaxed);
              while (j < cur && !first.compare_exchange_weak(
                                    cur, j, std::memory_order_relaxed)) {
              }
            }
          });
        });
        size_t fi = first.load(std::memory_order_relaxed);
        if (fi < ec.size()) {
          res[i].found = true;
          res[i].replacement = ec[fi];
          res[i].to_push.assign(ec.begin(),
                                ec.begin() + static_cast<ptrdiff_t>(fi));
          res[i].done = true;
        } else if (csz >= cmax) {
          res[i].to_push = std::move(ec);  // exhausted: push everything
          res[i].done = true;
        } else {
          any_searching.store(true, std::memory_order_relaxed);
        }
      }, 1);
      if (!any_searching.load(std::memory_order_relaxed)) break;
      ++w;
    }
    for (auto& o : res) stats_.edges_fetched += o.fetched;

    // Commit pushes (non-tree edges internal to their piece).
    {
      std::vector<std::vector<edge>> chunks(m);
      for (size_t i = 0; i < m; ++i) chunks[i] = std::move(res[i].to_push);
      std::vector<edge> pushes = flatten(chunks);
      dedupe(pushes);
      if (level > 0 && !pushes.empty()) {
        stats_.edges_pushed += pushes.size();
        ls_.move_down(level, pushes);
      }
    }

    // Commit replacements: spanning forest over the contracted graph.
    std::vector<edge> found;
    std::vector<vertex_id> next_seeds;
    for (size_t i = 0; i < m; ++i) {
      if (res[i].found) {
        found.push_back(res[i].replacement);
        next_seeds.push_back(active[i].seed);
      }
      // Exhausted pieces leave the active set (paper line 17-19); their
      // seeds stay in the carried set for the next level.
    }
    dedupe(found);
    if (!found.empty()) {
      std::vector<vertex_id> endpoints(2 * found.size());
      parallel_for(0, found.size(), [&](size_t i) {
        endpoints[2 * i] = found[i].u;
        endpoints[2 * i + 1] = found[i].v;
      });
      auto reps = f.batch_find_rep(endpoints);
      std::vector<rep> uniq(reps.begin(), reps.end());
      sort_unique(uniq);
      std::vector<edge> contracted(found.size());
      parallel_for(0, found.size(), [&](size_t i) {
        auto lbl = [&](rep r) {
          return static_cast<vertex_id>(
              std::lower_bound(uniq.begin(), uniq.end(), r) - uniq.begin());
        };
        contracted[i] = {lbl(reps[2 * i]), lbl(reps[2 * i + 1])};
      });
      auto sf = spanning_forest(uniq.size(), contracted);
      std::vector<edge> chosen(sf.tree_edge_indices.size());
      parallel_for(0, chosen.size(), [&](size_t i) {
        chosen[i] = found[sf.tree_edge_indices[i]];
      });
      stats_.replacements_promoted += chosen.size();
      ls_.promote_to_tree(level, chosen);
      ls_.link_tree(level, chosen);  // restructures F_level
      buffered.insert(buffered.end(), chosen.begin(), chosen.end());
    }

    // Re-resolve surviving pieces (reps changed after linking).
    active.clear();
    if (!next_seeds.empty()) {
      for (auto& p : resolve_pieces(level, next_seeds))
        if (p.size <= active_cap) active.push_back(p);
    }
  }
}

// ---------------------------------------------------------------------
// Algorithm 5 (interleaved)
// ---------------------------------------------------------------------

void batch_dynamic_connectivity::level_search_interleaved(
    int level, std::span<const vertex_id> seeds,
    std::vector<edge>& buffered) {
  ett_forest& f = ls_.forest(level);
  f.batch_link(buffered);  // line 2

  uint64_t active_cap = ls_.capacity(level) / 2;
  auto pieces = resolve_pieces(level, seeds);
  size_t np = pieces.size();

  // M: union-find over piece indices tracking supercomponent sizes
  // (line 7). Includes inactive pieces: replacement edges may merge into
  // them.
  std::unordered_map<rep, uint32_t> piece_index;
  piece_index.reserve(2 * np);
  for (size_t i = 0; i < np; ++i)
    piece_index.emplace(pieces[i].handle, static_cast<uint32_t>(i));
  union_find m(np);
  std::vector<uint64_t> super_size(np);
  std::vector<uint8_t> active(np);
  std::vector<piece> active_list;
  for (size_t i = 0; i < np; ++i) {
    super_size[i] = pieces[i].size;
    active[i] = pieces[i].size <= active_cap ? 1 : 0;
    if (active[i]) active_list.push_back(pieces[i]);
  }
  push_tree_edges(level, active_list);  // line 5

  // Accumulated per-level state. Detached cross-piece edges remember one
  // endpoint's piece so the finalizer can bucket them by their FINAL
  // supercomponent: only supercomponents that end the level small enough
  // may land below (their bridge edges must descend with them —
  // Invariant 2; see the finalizer).
  std::vector<std::pair<edge, uint32_t>> chosen_total;    // T, with piece
  std::vector<std::pair<edge, uint32_t>> detached_cross;  // piece-crossing
  std::vector<edge> detached_within;                      // piece-internal
  std::unordered_set<uint64_t> detached_keys;

  uint32_t r = 0;
  bool any_active = !active_list.empty();
  while (any_active) {
    BDC_PHASE_SPAN(span_search, "search.replacement");
    stats_.search_rounds++;
    stats_.doubling_phases++;
    uint64_t sz = r < 62 ? (uint64_t{1} << r) : ~uint64_t{0} >> 1;

    // Probe phase: each active piece fetches its next <= 2^r edges.
    struct probe {
      std::vector<edge> ec;
      bool exhausted = false;
    };
    std::vector<uint32_t> act_idx;
    for (uint32_t i = 0; i < static_cast<uint32_t>(np); ++i)
      if (active[i]) act_idx.push_back(i);
    std::vector<probe> probes(act_idx.size());
    parallel_for(
        0, act_idx.size(),
        [&](size_t j) {
          const piece& p = pieces[act_idx[j]];
          uint64_t cmax = f.component_counts(p.seed).nontree_edges;
          uint64_t csz = std::min(sz, cmax);
          probes[j].ec = fetch_nontree_edges(level, p, csz);
          probes[j].exhausted = (csz >= cmax);
        },
        1);
    for (auto& pr : probes) stats_.edges_fetched += pr.ec.size();

    // Identify replacement edges (endpoints in different F_level pieces;
    // F_level is static for the whole level, so reps never go stale).
    // One dispatch for the whole phase: the per-edge connectivity checks
    // inside the filter are direct calls in the visit arm.
    std::vector<std::vector<edge>> repl_chunks(probes.size());
    f.visit([&](auto& fc) {
      parallel_for(
          0, probes.size(),
          [&](size_t j) {
            repl_chunks[j] = filter(probes[j].ec, [&](const edge& e) {
              return !fc.connected(e.u, e.v);
            });
          },
          1);
    });
    std::vector<edge> repl = flatten(repl_chunks);
    dedupe(repl);
    std::unordered_set<uint64_t> repl_keys;
    repl_keys.reserve(2 * repl.size());
    for (const edge& e : repl) repl_keys.insert(edge_key(e));

    // Merge supercomponents with a spanning forest over M-contracted
    // replacements (lines 16-21); sequential Kruskal over <= k edges.
    std::vector<uint32_t> repl_piece_u(repl.size());
    if (!repl.empty()) {
      std::vector<vertex_id> endpoints(2 * repl.size());
      parallel_for(0, repl.size(), [&](size_t i) {
        endpoints[2 * i] = repl[i].u;
        endpoints[2 * i + 1] = repl[i].v;
      });
      auto reps = f.batch_find_rep(endpoints);
      for (size_t i = 0; i < repl.size(); ++i) {
        auto it_u = piece_index.find(reps[2 * i]);
        auto it_v = piece_index.find(reps[2 * i + 1]);
        assert(it_u != piece_index.end() && it_v != piece_index.end());
        repl_piece_u[i] = it_u->second;
        uint32_t ru = m.find(it_u->second), rv = m.find(it_v->second);
        if (ru == rv) continue;
        uint64_t sz_merged = super_size[ru] + super_size[rv];
        m.unite(ru, rv);
        super_size[m.find(ru)] = sz_merged;
        chosen_total.push_back({repl[i], it_u->second});
        stats_.replacements_promoted++;
      }
    }
    std::unordered_map<uint64_t, uint32_t> repl_piece_of;
    repl_piece_of.reserve(2 * repl.size());
    for (size_t i = 0; i < repl.size(); ++i)
      repl_piece_of.emplace(edge_key(repl[i]), repl_piece_u[i]);

    // Deactivation / deferred-push decisions (lines 22-31).
    std::vector<std::vector<edge>> detach_chunks(probes.size());
    any_active = false;
    for (size_t j = 0; j < probes.size(); ++j) {
      uint32_t pi = act_idx[j];
      uint64_t msize = super_size[m.find(pi)];
      if (msize <= active_cap && !probes[j].exhausted) {
        detach_chunks[j] = std::move(probes[j].ec);
        any_active = true;
      } else {
        active[pi] = 0;
      }
    }
    std::vector<edge> detach = flatten(detach_chunks);
    dedupe(detach);
    detach = filter(detach, [&](const edge& e) {
      return !detached_keys.count(edge_key(e));
    });
    if (!detach.empty()) {
      ls_.detach_edges(level, detach);
      for (const edge& e : detach) {
        detached_keys.insert(edge_key(e));
        auto it = repl_piece_of.find(edge_key(e));
        if (it != repl_piece_of.end()) {
          detached_cross.push_back({e, it->second});
        } else {
          detached_within.push_back(e);
        }
      }
    }
    ++r;
  }

  // ------------------------------------------------------------------
  // Finalize (lines 33-35). A supercomponent S is "small" if its final
  // size still fits one level down. Small S: all its detached cross
  // edges AND all its chosen bridge edges descend to level-1 together,
  // keeping Invariant 2 (a cross edge below needs its bridge below).
  // Large S: its detached cross edges re-attach at this level, and its
  // chosen edges stay here as tree edges.
  // Detached within-piece edges always descend (their piece's level-i
  // tree edges were pushed by line 5).
  // ------------------------------------------------------------------
  auto final_small = [&](uint32_t piece_idx) {
    return super_size[m.find(piece_idx)] <= active_cap;
  };

  std::vector<edge> chosen_edges(chosen_total.size());
  for (size_t i = 0; i < chosen_total.size(); ++i)
    chosen_edges[i] = chosen_total[i].first;

  // Flip chosen records to tree status (adjacency kind flip only for the
  // still-attached ones; detached edges have no adjacency entries).
  std::vector<edge> attached_chosen, detached_chosen_small,
      detached_chosen_large;
  std::vector<edge> attached_chosen_small;  // subset of attached_chosen
  for (auto& [e, pi] : chosen_total) {
    if (detached_keys.count(edge_key(e))) {
      (final_small(pi) ? detached_chosen_small : detached_chosen_large)
          .push_back(e);
    } else {
      attached_chosen.push_back(e);
      if (final_small(pi)) attached_chosen_small.push_back(e);
    }
  }
  ls_.promote_to_tree(level, attached_chosen);
  {
    std::vector<edge> detached_chosen = detached_chosen_small;
    detached_chosen.insert(detached_chosen.end(),
                           detached_chosen_large.begin(),
                           detached_chosen_large.end());
    parallel_for(0, detached_chosen.size(), [&](size_t i) {
      edge_record* rec = ls_.dict().find(edge_key(detached_chosen[i]));
      assert(rec != nullptr && rec->is_tree == 0);
      rec->is_tree = 1;
    });
  }
  ls_.link_tree(level, chosen_edges);  // line 34: F_level gets every T edge
  buffered.insert(buffered.end(), chosen_edges.begin(), chosen_edges.end());

  // Bucket detached cross edges by final supercomponent size.
  std::vector<edge> cross_small, cross_large;
  for (auto& [e, pi] : detached_cross) {
    // Skip chosen edges (already categorized above).
    (final_small(pi) ? cross_small : cross_large).push_back(e);
  }
  {
    std::unordered_set<uint64_t> chosen_keys;
    for (const edge& e : chosen_edges) chosen_keys.insert(edge_key(e));
    auto not_chosen = [&](const edge& e) {
      return !chosen_keys.count(edge_key(e));
    };
    cross_small = filter(cross_small, not_chosen);
    cross_large = filter(cross_large, not_chosen);
  }

  // Large supercomponents: re-attach their cross edges at this level
  // (endpoints are connected here now that T is linked).
  std::vector<edge> reattach = cross_large;
  reattach.insert(reattach.end(), detached_chosen_large.begin(),
                  detached_chosen_large.end());
  ls_.insert_detached(level, reattach);

  // Everything else descends.
  std::vector<edge> descend = detached_within;
  descend.insert(descend.end(), cross_small.begin(), cross_small.end());
  descend.insert(descend.end(), detached_chosen_small.begin(),
                 detached_chosen_small.end());
  if (!descend.empty()) {
    assert(level > 0);
    stats_.edges_pushed += descend.size();
    ls_.insert_detached(level - 1, descend);
    ls_.link_tree(level - 1, detached_chosen_small);
  }
  if (!attached_chosen_small.empty()) {
    // Chosen bridges of small supercomponents that were never detached:
    // move them down so future pushes inside S stay above their bridges.
    stats_.edges_pushed += attached_chosen_small.size();
    ls_.move_down(level, attached_chosen_small);
  }
}

// ---------------------------------------------------------------------
// Invariant validation
// ---------------------------------------------------------------------

invariant_report batch_dynamic_connectivity::check_invariants() const {
  auto fail = [](std::string msg) {
    return invariant_report{false, std::move(msg)};
  };
  int top = ls_.top();
  auto edges = ls_.dict().entries();

  // Substrate health + per-level structural checks.
  for (int i = 0; i <= top; ++i) {
    const ett_forest* f = ls_.forest_if(i);
    if (f == nullptr) continue;
    if (auto err = f->check_consistency(); !err.empty())
      return fail("level " + std::to_string(i) + " ETT: " + err);
    if (const leveled_adjacency* a = ls_.adj_if(i)) {
      if (auto err = a->check_positions(ls_.dict(), i); !err.empty())
        return fail("level " + std::to_string(i) + " adjacency: " + err);
    }
    // Forest edge population: exactly the tree edges of level <= i.
    size_t expect = 0;
    for (auto& [key, rec] : edges)
      if (rec.is_tree && rec.level <= i) expect++;
    if (f->num_edges() != expect)
      return fail("level " + std::to_string(i) + ": forest has " +
                  std::to_string(f->num_edges()) + " edges, expected " +
                  std::to_string(expect));
    // The vertices level i can touch: endpoints of the tree edges F_i
    // holds (levels <= i) plus endpoints of level-i edges (which carry
    // the level's counters). With sparse activation this is EXACTLY the
    // set of vertices holding a directory slot in F_i; every other
    // vertex is a tourless singleton with zero counters, whose checks
    // the substrate's own check_consistency already covers. Sweeping
    // `touched` instead of [0, n) keeps the invariant walk O(edges) per
    // level — the same bound the structure itself now obeys.
    std::vector<vertex_id> touched;
    for (auto& [key, rec] : edges) {
      if ((rec.is_tree && rec.level <= i) || rec.level == i) {
        edge e = edge_from_key(key);
        touched.push_back(e.u);
        touched.push_back(e.v);
      }
    }
    sort_unique(touched);
    if (f->active_vertices() != touched.size())
      return fail("level " + std::to_string(i) + ": " +
                  std::to_string(f->active_vertices()) +
                  " active directory slots, but " +
                  std::to_string(touched.size()) +
                  " vertices carry level-" + std::to_string(i) + " edges");
    // Invariant 1 + augmented size cross-check.
    std::unordered_map<rep, size_t> comp_count;
    for (vertex_id v : touched) comp_count[f->find_rep(v)]++;
    for (vertex_id v : touched) {
      auto cc = f->component_counts(v);
      rep handle = f->find_rep(v);
      if (cc.vertices != comp_count[handle])
        return fail("level " + std::to_string(i) +
                    ": augmented size mismatch at vertex " +
                    std::to_string(v));
      if (cc.vertices > ls_.capacity(i))
        return fail("level " + std::to_string(i) + ": component of size " +
                    std::to_string(cc.vertices) + " exceeds capacity " +
                    std::to_string(ls_.capacity(i)) + " (Invariant 1)");
    }
    // Per-vertex counters match adjacency degrees.
    const leveled_adjacency* a = ls_.adj_if(i);
    for (vertex_id v : touched) {
      auto vc = f->vertex_counts(v);
      uint32_t td = a ? a->tree_degree(v) : 0;
      uint32_t nd = a ? a->nontree_degree(v) : 0;
      if (vc.tree_edges != td || vc.nontree_edges != nd)
        return fail("level " + std::to_string(i) +
                    ": counter/degree mismatch at vertex " +
                    std::to_string(v));
    }
  }

  // Per-edge placement: tree edges in F_level..F_top; non-tree endpoints
  // connected at their level (Invariant 2's cycle property).
  for (auto& [key, rec] : edges) {
    edge e = edge_from_key(key);
    if (rec.level < 0 || rec.level > top) return fail("bad edge level");
    for (int i = 0; i <= top; ++i) {
      const ett_forest* f = ls_.forest_if(i);
      bool should = rec.is_tree && rec.level <= i;
      bool present = f != nullptr && f->has_edge(e);
      if (should != present)
        return fail("edge placement violated at level " + std::to_string(i));
    }
    if (!rec.is_tree) {
      const ett_forest* f = ls_.forest_if(rec.level);
      if (f == nullptr || !f->connected(e.u, e.v))
        return fail("non-tree edge's endpoints not connected at its level "
                    "(Invariant 2)");
    }
  }

  // Global connectivity agrees with a from-scratch union-find.
  {
    union_find uf(num_vertices());
    for (auto& [key, rec] : edges) {
      edge e = edge_from_key(key);
      uf.unite(e.u, e.v);
    }
    auto labels = components();
    for (size_t v = 0; v < num_vertices(); ++v) {
      vertex_id lbl = labels[v];
      if (!uf.connected(static_cast<uint32_t>(v), lbl))
        return fail("component labels disagree with union-find");
      if (labels[lbl] != lbl) return fail("non-canonical component label");
      if (uf.find(static_cast<uint32_t>(v)) !=
          uf.find(static_cast<uint32_t>(labels[v])))
        return fail("component labels disagree with union-find");
    }
    // Partition granularity: vertices with equal uf roots share labels.
    std::unordered_map<uint32_t, vertex_id> root_label;
    for (size_t v = 0; v < num_vertices(); ++v) {
      uint32_t root = uf.find(static_cast<uint32_t>(v));
      auto [it, inserted] = root_label.emplace(root, labels[v]);
      if (!inserted && it->second != labels[v])
        return fail("connected vertices carry different labels");
    }
  }
  return {};
}

}  // namespace bdc
