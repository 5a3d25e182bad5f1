// Incremental snapshot publishing (ISSUE 7): the read service's
// publish_snapshot() relabels only the components a batch touched,
// sharing untouched chunks of the copy-on-write label/size table between
// versions. These suites pin down the contract from the outside:
//
//   * Differential: after EVERY committed batch, the published snapshot's
//     labels must equal a from-scratch components() walk — across all
//     substrate configs. This is the
//     direct check that the touched-seed collection (endpoints of every
//     top-forest link/cut) reaches every component whose membership
//     changed.
//   * Sizes are maintained incrementally (no O(n) counting pass); they
//     are asserted independently against a recount of the scratch walk.
//   * Chunk-boundary writes, pinned-view freezing under chunk cloning,
//     and the automatic full-walk fallback for shatter-everything batches
//     each get a dedicated case.
//
// substrate_fuzz_test's BdcDifferential repeats the per-batch label check
// inside the randomized oracle sweep; this suite is the deterministic,
// always-on half.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "test_substrates.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kSubConfigs;
using ::bdc::testing::sub_config;

/// Asserts the published snapshot agrees with a from-scratch walk:
/// labels, per-vertex component sizes (recounted independently), and the
/// committed version.
void expect_snapshot_fresh(batch_dynamic_connectivity& dc,
                           uint64_t expected_version,
                           const std::string& what) {
  auto view = dc.snapshot_query();
  EXPECT_EQ(view.version(), expected_version) << what;
  std::vector<vertex_id> snap = view.components();
  std::vector<vertex_id> scratch = dc.components();
  ASSERT_EQ(snap, scratch) << what;
  std::unordered_map<vertex_id, uint32_t> counts;
  for (vertex_id l : scratch) counts[l]++;
  for (vertex_id v = 0; v < static_cast<vertex_id>(scratch.size()); ++v) {
    ASSERT_EQ(view.component_size(v), counts[scratch[v]])
        << what << " size of vertex " << v;
  }
}

class SnapshotPublish : public ::testing::TestWithParam<sub_config> {};

// The core differential: a randomized insert/delete stream; after every
// batch the published snapshot must match a from-scratch components()
// walk, labels and sizes both.
TEST_P(SnapshotPublish, MatchesFromScratchAfterEveryBatch) {
  const sub_config& sc = GetParam();
  const vertex_id n = 600;
  options o = sc.apply({});
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  expect_snapshot_fresh(dc, 0, "construction");

  random_stream rng(hash_combine(0x5eed, std::hash<std::string>{}(sc.name)));
  std::vector<edge> pool;  // edges currently present
  uint64_t version = 0;
  for (int round = 0; round < 30; ++round) {
    if (round % 3 != 2) {
      std::vector<edge> batch;
      for (int i = 0; i < 40; ++i) {
        vertex_id u = static_cast<vertex_id>(rng.next(n));
        vertex_id v = static_cast<vertex_id>(rng.next(n));
        if (u != v) batch.push_back(edge{u, v}.canonical());
      }
      dc.batch_insert(batch);
      for (const edge& e : batch)
        if (dc.has_edge(e)) pool.push_back(e);
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    } else {
      std::vector<edge> batch;
      for (int i = 0; i < 30 && !pool.empty(); ++i) {
        size_t j = rng.next(pool.size());
        batch.push_back(pool[j]);
        pool[j] = pool.back();
        pool.pop_back();
      }
      dc.batch_delete(batch);
    }
    ++version;
    expect_snapshot_fresh(dc, version,
                          std::string(sc.name) + " round " +
                              std::to_string(round));
  }
  auto rep = dc.check_invariants();
  EXPECT_TRUE(rep.ok) << rep.message;
}

INSTANTIATE_TEST_SUITE_P(Grid, SnapshotPublish,
                         ::testing::ValuesIn(kSubConfigs),
                         [](const auto& info) { return info.param.name; });

// Writes that straddle label-table chunk boundaries (4096 entries per
// chunk): components spanning two chunks must relabel on both sides, and
// the untouched tail chunk keeps its identity.
TEST(SnapshotPublishEdge, ChunkBoundaryWrites) {
  const vertex_id n = 2 * 4096 + 100;  // three chunks, last one partial
  options o;
  o.substrate = substrate::blocked;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);

  // A path crossing the first chunk boundary: 4000 .. 4200.
  std::vector<edge> path;
  for (vertex_id v = 4000; v < 4200; ++v) path.push_back({v, v + 1});
  dc.batch_insert(path);
  expect_snapshot_fresh(dc, 1, "path across chunk 0/1 boundary");

  // Cut exactly at the boundary edge (4095, 4096): the two halves land in
  // different chunks.
  dc.batch_delete({{edge{4095, 4096}}});
  expect_snapshot_fresh(dc, 2, "cut at the chunk boundary");

  // A component wholly inside the last (partial) chunk.
  std::vector<edge> tail;
  for (vertex_id v = n - 50; v + 1 < n; ++v) tail.push_back({v, v + 1});
  dc.batch_insert(tail);
  expect_snapshot_fresh(dc, 3, "tail-chunk component");
}

// Pinned views must stay frozen while later batches clone chunks out
// from under them — the copy-on-write sharing is exactly what makes this
// free, and a clone that mutated a shared chunk would show up here.
TEST(SnapshotPublishEdge, PinnedViewsFrozenAcrossVersions) {
  const vertex_id n = 512;
  options o;
  o.substrate = substrate::blocked;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);

  struct pinned {
    batch_dynamic_connectivity::snapshot_view view;
    std::vector<vertex_id> labels;
    uint64_t version;
  };
  std::vector<pinned> pins;
  auto pin = [&] {
    auto view = dc.snapshot_query();
    auto labels = view.components();
    uint64_t version = view.version();
    pins.push_back({std::move(view), std::move(labels), version});
  };

  std::vector<edge> chain;
  for (vertex_id v = 0; v + 1 < n; ++v) chain.push_back({v, v + 1});
  pin();
  dc.batch_insert(chain);
  pin();
  // Churn the same vertex range repeatedly: every batch rewrites labels
  // inside the chunk the pinned views still reference.
  for (int i = 0; i < 6; ++i) {
    dc.batch_delete({{chain[static_cast<size_t>(i) * 40]}});
    pin();
  }
  for (const auto& p : pins) {
    EXPECT_EQ(p.view.version(), p.version);
    EXPECT_EQ(p.view.components(), p.labels)
        << "pinned version " << p.version << " moved";
  }
}

// The incremental path must hand large-touch batches to the full walk
// (touched-component size estimate > n/4) and keep small-component
// churn incremental. The cost unit is the touched COMPONENT, not the
// edge: cutting one edge of a giant path relabels both halves, so the
// graph here is a sea of 16-vertex path clusters — the shape the
// incremental publisher is built for.
TEST(SnapshotPublishEdge, ShatterFallsBackToFullWalk) {
  const vertex_id n = 1024;
  constexpr vertex_id kCluster = 16;
  options o;
  o.substrate = substrate::blocked;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  EXPECT_EQ(dc.stats().publishes_full, 1u);  // construction (forced)

  // Build every cluster in one batch: all n vertices touched -> full.
  std::vector<edge> sea;
  for (vertex_id v = 0; v + 1 < n; ++v)
    if ((v + 1) % kCluster != 0) sea.push_back({v, v + 1});
  dc.batch_insert(sea);
  EXPECT_EQ(dc.stats().publishes_full, 2u);

  // Nick two edges inside ONE cluster: touched components total at most
  // 16 vertices -> incremental, and exactly those vertices relabel.
  const uint64_t relabeled_before = dc.stats().publish_relabeled;
  dc.batch_delete({{edge{100, 101}, edge{101, 102}}});
  EXPECT_EQ(dc.stats().publishes_full, 2u);
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled_before + kCluster);
  expect_snapshot_fresh(dc, 2, "incremental nick");

  // Shatter: delete every remaining edge in one batch -> every cluster
  // touched -> fallback.
  std::vector<edge> rest;
  for (const edge& e : sea)
    if (dc.has_edge(e)) rest.push_back(e);
  dc.batch_delete(rest);
  EXPECT_EQ(dc.stats().publishes_full, 3u);
  expect_snapshot_fresh(dc, 3, "shatter");
}

// An update batch that commits nothing still publishes a fresh version —
// but relabels nothing and clones nothing (all chunk pointers shared).
TEST(SnapshotPublishEdge, NoopBatchPublishesCheaply) {
  const vertex_id n = 256;
  options o;
  o.substrate = substrate::treap;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  dc.batch_insert({{edge{1, 2}, edge{2, 3}}});

  const uint64_t relabeled = dc.stats().publish_relabeled;
  const uint64_t fulls = dc.stats().publishes_full;
  dc.batch_insert({{edge{1, 2}}});  // duplicate: no top-forest mutation
  dc.batch_delete({{edge{7, 8}}});  // absent: no mutation at all
  EXPECT_EQ(dc.committed_version(), 3u);
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled);
  EXPECT_EQ(dc.stats().publishes_full, fulls);
  expect_snapshot_fresh(dc, 3, "noop commits");
}

// Non-tree churn must not relabel: inserting an edge inside an existing
// component mutates no top-forest tour, so the incremental publish
// shares every chunk untouched.
TEST(SnapshotPublishEdge, NontreeInsertRelabelsNothing) {
  const vertex_id n = 128;
  options o;
  o.substrate = substrate::skiplist;
  o.concurrent_reads = true;
  batch_dynamic_connectivity dc(n, o);
  dc.batch_insert({{edge{0, 1}, edge{1, 2}, edge{2, 3}}});

  const uint64_t relabeled = dc.stats().publish_relabeled;
  dc.batch_insert({{edge{0, 3}}});  // closes a cycle: non-tree
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled);
  expect_snapshot_fresh(dc, 2, "cycle-closing insert");

  // Deleting the non-tree edge is equally free.
  dc.batch_delete({{edge{0, 3}}});
  EXPECT_EQ(dc.stats().publish_relabeled, relabeled);
  expect_snapshot_fresh(dc, 3, "non-tree delete");
}

TEST(SnapshotPublishEdge, ConfigLabelMarksServe) {
  options o;
  o.concurrent_reads = true;
  EXPECT_EQ(config_label(o), "skiplist+serve");
  o.concurrent_reads = false;
  EXPECT_EQ(config_label(o), "skiplist");
}

TEST(SnapshotPublishEdge, TinyAndEmptyStructures) {
  for (vertex_id n : {vertex_id{0}, vertex_id{1}, vertex_id{2}}) {
    options o;
    o.concurrent_reads = true;
    batch_dynamic_connectivity dc(n, o);
    auto view = dc.snapshot_query();
    EXPECT_FALSE(view.connected_pinned(0, 1));
    EXPECT_EQ(view.component_size(5), 0u);
    dc.batch_insert({{edge{0, 1}}});  // dropped unless n >= 2
    expect_snapshot_fresh(dc, 1, "tiny n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace bdc
