// The sparse per-level vertex directory (src/ett/vertex_directory.hpp)
// and the O(active)-memory contract it gives every substrate:
//
//   * unit invariants of the directory itself (activation, publication,
//     chunk reclamation, parallel activation of chunk-sharing vertices);
//   * substrate-level activation hygiene on the full ett_forest grid —
//     active_vertices() tracks exactly the touched vertices and returns
//     to zero when the last edge leaves, including a mid-stream first
//     touch of the highest vertex ids (the regression that motivated the
//     directory: dense arrays made that O(n) up front, the directory
//     must make it O(1) at touch time);
//   * end-to-end memory-scales-with-activity at n = 2^20 through
//     batch_dynamic_connectivity::levels().footprint(), asserting the
//     sparse hierarchy beats the old dense n-slots-per-materialized-level
//     layout by at least 5x on a hub-churn-shaped workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "ett/ett_forest.hpp"
#include "ett/vertex_directory.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "parallel/primitives.hpp"
#include "test_substrates.hpp"
#include "test_workers.hpp"
#include "util/node_pool.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kEttConfigs;

using dir8 = vertex_directory<uint64_t>;

TEST(VertexDirectory, ActivateFindDeactivate) {
  node_pool pool;
  dir8 dir(1000, pool);
  EXPECT_EQ(dir.active_count(), 0u);
  EXPECT_EQ(dir.find(17), nullptr);

  uint64_t& slot = dir.activate(17, [](uint64_t& s) { s = 42; });
  EXPECT_EQ(slot, 42u);
  ASSERT_NE(dir.find(17), nullptr);
  EXPECT_EQ(*dir.find(17), 42u);
  EXPECT_EQ(dir.active_count(), 1u);
  // Re-activation returns the same slot untouched.
  uint64_t& again = dir.activate(17, [](uint64_t& s) { s = 99; });
  EXPECT_EQ(&again, &slot);
  EXPECT_EQ(again, 42u);
  EXPECT_EQ(dir.active_count(), 1u);

  dir.deactivate(17);
  EXPECT_EQ(dir.find(17), nullptr);
  EXPECT_EQ(dir.active_count(), 0u);
  EXPECT_EQ(dir.check_consistency(), "");
}

TEST(VertexDirectory, ChunkReclamationAndReuse) {
  node_pool pool;
  dir8 dir(10 * dir8::kSpan, pool);
  // Fill one chunk, plus a lone slot in another.
  for (uint32_t i = 0; i < dir8::kSpan; ++i)
    dir.activate(i, [&](uint64_t& s) { s = i; });
  dir.activate(5 * dir8::kSpan + 3, [](uint64_t& s) { s = 7; });
  EXPECT_EQ(dir.chunk_count(), 2u);
  const size_t two_chunk_bytes = dir.resident_bytes();

  // Empty the full chunk; the storage is only queued, not freed inline.
  for (uint32_t i = 0; i < dir8::kSpan; ++i) dir.deactivate(i);
  EXPECT_EQ(dir.chunk_count(), 2u);
  dir.sweep_pending();
  EXPECT_EQ(dir.chunk_count(), 1u);
  EXPECT_LT(dir.resident_bytes(), two_chunk_bytes);
  EXPECT_EQ(dir.check_consistency(), "");

  // A deactivate/re-activate pair before the sweep keeps the chunk.
  dir.deactivate(5 * dir8::kSpan + 3);
  dir.activate(5 * dir8::kSpan + 4, [](uint64_t& s) { s = 8; });
  dir.sweep_pending();
  EXPECT_EQ(dir.chunk_count(), 1u);
  ASSERT_NE(dir.find(5 * dir8::kSpan + 4), nullptr);

  // Reclaimed ranges re-activate cleanly (a fresh chunk is installed).
  dir.activate(3, [](uint64_t& s) { s = 11; });
  EXPECT_EQ(dir.chunk_count(), 2u);
  EXPECT_EQ(*dir.find(3), 11u);
  EXPECT_EQ(dir.check_consistency(), "");
}

TEST(VertexDirectory, ParallelActivationSharingChunks) {
  node_pool pool;
  const vertex_id n = 1 << 14;
  dir8 dir(n, pool);
  // Every vertex activates concurrently; vertices share chunks, so this
  // exercises the CAS install race and the atomic occupancy updates.
  parallel_for(0, n, [&](size_t v) {
    dir.activate(static_cast<vertex_id>(v),
                 [&](uint64_t& s) { s = uint64_t{v} * 3; });
  });
  EXPECT_EQ(dir.active_count(), static_cast<uint64_t>(n));
  EXPECT_EQ(dir.chunk_count(), static_cast<uint64_t>(n / dir8::kSpan));
  EXPECT_EQ(dir.check_consistency(), "");
  parallel_for(0, n, [&](size_t v) {
    uint64_t* s = dir.find(static_cast<vertex_id>(v));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(*s, uint64_t{v} * 3);
  });
  parallel_for(0, n, [&](size_t v) {
    dir.deactivate(static_cast<vertex_id>(v));
  });
  dir.sweep_pending();
  EXPECT_EQ(dir.active_count(), 0u);
  EXPECT_EQ(dir.chunk_count(), 0u);
  EXPECT_EQ(dir.check_consistency(), "");
}

// ---------------------------------------------------------------------
// Substrate-level activation hygiene, over every substrate.
// ---------------------------------------------------------------------

class SparseSubstrate : public ::testing::TestWithParam<testing::ett_config> {
};

TEST_P(SparseSubstrate, ActiveVerticesTrackTouchedSet) {
  const auto& cfg = GetParam();
  const vertex_id n = 1 << 20;
  ett_forest f(cfg.sub, n, /*seed=*/42);
  EXPECT_EQ(f.active_vertices(), 0u);
  const size_t empty_bytes = f.directory_bytes();

  // A path over scattered ids, including the top of the id space.
  std::vector<vertex_id> vs = {3,      70000,  5,       999999, 131072,
                               n - 1,  17,     524288,  n - 2,  42};
  std::vector<edge> links;
  for (size_t i = 0; i + 1 < vs.size(); ++i)
    links.push_back({vs[i], vs[i + 1]});
  f.batch_link(links);
  EXPECT_EQ(f.active_vertices(), vs.size());
  EXPECT_TRUE(f.connected(3, n - 1));
  EXPECT_EQ(f.check_consistency(), "");

  // Cutting everything returns the forest to its empty footprint.
  f.batch_cut(links);
  EXPECT_EQ(f.active_vertices(), 0u);
  EXPECT_EQ(f.directory_bytes(), empty_bytes);
  EXPECT_FALSE(f.connected(3, n - 1));
  EXPECT_EQ(f.check_consistency(), "");
}

TEST_P(SparseSubstrate, HighVertexIdMidStreamFirstTouch) {
  const auto& cfg = GetParam();
  const vertex_id n = 1 << 20;
  ett_forest f(cfg.sub, n, /*seed=*/7);

  // Run a few batches entirely among low ids first, so the directory has
  // settled into low chunks before the high range is ever touched.
  std::vector<edge> low = {{0, 1}, {1, 2}, {2, 3}};
  f.batch_link(low);
  std::vector<ett_forest::count_delta> low_counts = {{1, 0, 2}, {3, 0, 1}};
  f.batch_add_counts(low_counts);
  ASSERT_EQ(f.check_consistency(), "");

  // Mid-stream first touch of the very top of the id space: a tree edge
  // (activation without counters) and a counter-only vertex.
  std::vector<edge> high = {{n - 1, n - 2}};
  f.batch_link(high);
  std::vector<ett_forest::count_delta> high_counts = {{n - 3, 0, 1}};
  f.batch_add_counts(high_counts);
  EXPECT_TRUE(f.connected(n - 1, n - 2));
  EXPECT_FALSE(f.connected(n - 1, 0));
  EXPECT_EQ(f.vertex_counts(n - 3).nontree_edges, 1u);
  EXPECT_EQ(f.active_vertices(), 4u + 3u);
  EXPECT_EQ(f.check_consistency(), "");

  // And the high vertices deactivate independently of the low ones.
  std::vector<ett_forest::count_delta> undo = {{n - 3, 0, -1}};
  f.batch_add_counts(undo);
  f.batch_cut(high);
  // Only the low path remains: the low counter deltas landed on path
  // vertices (1 and 3), so they never added activations of their own.
  EXPECT_EQ(f.active_vertices(), 4u);
  EXPECT_EQ(f.check_consistency(), "");
}

INSTANTIATE_TEST_SUITE_P(Grid, SparseSubstrate,
                         ::testing::ValuesIn(kEttConfigs),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------
// End to end: memory scales with activity, not with n.
// ---------------------------------------------------------------------

// The hub-churn replay both assertions below measure: a tiny RMAT base
// (~2^11 edges touching a few thousand distinct vertices out of the 2^20
// id space) whose churn rounds force deletions (level pushes) so lower
// levels materialize.
struct hub_replay {
  level_structure::hierarchy_stats hs;
  uint64_t max_active = 0;
  uint64_t pool_blocks = 0;
  invariant_report invariants;
};

hub_replay replay_hub_churn(vertex_id n) {
  std::vector<edge> graph = gen_rmat(n, 1 << 11, /*seed=*/5);
  update_stream stream =
      make_hub_churn_stream(graph, n, /*batch=*/256, /*rounds=*/2,
                            /*seed=*/6);
  batch_dynamic_connectivity s(n, options{});
  hub_replay r;
  for (const update_batch& b : stream) {
    switch (b.op) {
      case update_batch::kind::insert:
        s.batch_insert(b.edges);
        break;
      case update_batch::kind::erase:
        s.batch_delete(b.edges);
        break;
      case update_batch::kind::query:
        (void)s.batch_connected(b.queries);
        break;
    }
    r.max_active =
        std::max(r.max_active, s.levels().footprint().active_vertices);
  }
  r.hs = s.levels().footprint();
  r.pool_blocks = s.levels().pool_stats().blocks;
  r.invariants = s.check_invariants();
  return r;
}

TEST(SparseHierarchy, MemoryScalesWithActivityAtProductionN) {
  const vertex_id n = 1 << 20;
  // One worker: the configuration the 5x bound was measured in (5.28x),
  // with no per-worker allocation slack in the node pools.
  hub_replay one;
  {
    testing::worker_pool_guard pool(1);
    one = replay_hub_churn(n);
  }
  ASSERT_GT(one.hs.materialized, 1u) << "churn never materialized a lower "
                                        "level; the test lost its point";
  EXPECT_TRUE(one.invariants.ok) << one.invariants.message;

  // Activity (and therefore active slots) is bounded by the touched
  // vertex set per level, nowhere near n.
  EXPECT_LT(one.max_active, static_cast<uint64_t>(n) / 64);

  // The dense layout the sparse directory replaced kept >= n 8-byte slots
  // per materialized level; sparse must beat that floor by >= 5x.
  const uint64_t dense_floor = one.hs.materialized * uint64_t{n} * 8;
  EXPECT_LT(one.hs.bytes * 5, dense_floor)
      << "bytes=" << one.hs.bytes << " dense_floor=" << dense_floor;

  // The default worker count replays the same stream. The node pool
  // carves from one bump cursor per worker, so each worker that allocates
  // in a forest holds its own partly carved 64 KiB block there, and the
  // nodes it frees go to its own freelist, which other workers do not
  // reuse. Both costs are O(workers) per materialized forest, not O(n):
  // beyond the one-worker run, each extra worker may retain two more
  // blocks per forest (its open carve block plus up to one block of
  // nodes stranded on its freelist). Measured on this replay at 2/3/4/8
  // workers: +1/+4/+5/+9 blocks over 2 forests, against bounds of
  // 4/8/12/28.
  const unsigned workers = testing::kDefaultWorkers;
  hub_replay many;
  {
    testing::worker_pool_guard pool(workers);
    many = replay_hub_churn(n);
  }
  EXPECT_TRUE(many.invariants.ok) << many.invariants.message;
  const uint64_t slack_blocks =
      2 * uint64_t{workers - 1} * many.hs.materialized;
  EXPECT_LE(many.pool_blocks, one.pool_blocks + slack_blocks)
      << "workers=" << workers << " blocks at 1 worker=" << one.pool_blocks;
  EXPECT_LE(many.hs.bytes,
            one.hs.bytes + slack_blocks * node_pool::kBlockBytes)
      << "workers=" << workers;
}

}  // namespace
}  // namespace bdc
