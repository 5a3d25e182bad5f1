// Core batch-dynamic connectivity tests: unit behaviours, edge cases, and
// structured-graph scenarios, with full invariant validation after every
// mutation. The whole suite is value-parameterized over the shared
// substrate-config table (tests/test_substrates.hpp): every uniform
// Euler-tour backend plus the mixed per-level policies. Randomized
// cross-engine property tests live in connectivity_property_test.cpp.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "test_substrates.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kSubConfigs;
using ::bdc::testing::sub_config;

void expect_healthy(const batch_dynamic_connectivity& dc,
                    const char* where) {
  auto rep = dc.check_invariants();
  ASSERT_TRUE(rep.ok) << where << ": " << rep.message;
}

class Connectivity : public ::testing::TestWithParam<sub_config> {
 protected:
  [[nodiscard]] options opts(
      level_search_kind k = level_search_kind::interleaved) const {
    options o;
    o.search = k;
    return GetParam().apply(o);
  }
};

std::string config_name(const ::testing::TestParamInfo<sub_config>& info) {
  return info.param.name;
}

TEST_P(Connectivity, EmptyGraph) {
  batch_dynamic_connectivity dc(5, opts());
  EXPECT_EQ(dc.num_vertices(), 5u);
  EXPECT_EQ(dc.num_edges(), 0u);
  EXPECT_FALSE(dc.connected(0, 4));
  EXPECT_TRUE(dc.connected(2, 2));
  EXPECT_EQ(dc.component_size(3), 1u);
  auto labels = dc.components();
  for (vertex_id v = 0; v < 5; ++v) EXPECT_EQ(labels[v], v);
  expect_healthy(dc, "empty");
}

TEST_P(Connectivity, TinyGraphs) {
  batch_dynamic_connectivity one(1, opts());
  EXPECT_TRUE(one.connected(0, 0));
  expect_healthy(one, "n=1");

  batch_dynamic_connectivity two(2, opts());
  two.insert({0, 1});
  EXPECT_TRUE(two.connected(0, 1));
  two.erase({0, 1});
  EXPECT_FALSE(two.connected(0, 1));
  expect_healthy(two, "n=2");
}

TEST_P(Connectivity, InsertSanitization) {
  batch_dynamic_connectivity dc(10, opts());
  std::vector<edge> batch = {{1, 2}, {2, 1}, {1, 2}, {3, 3}, {4, 5}};
  dc.batch_insert(batch);
  EXPECT_EQ(dc.num_edges(), 2u);  // (1,2) once, (4,5); self-loop dropped
  EXPECT_TRUE(dc.has_edge({2, 1}));
  EXPECT_FALSE(dc.has_edge({3, 3}));
  dc.batch_insert(batch);  // all already present / invalid
  EXPECT_EQ(dc.num_edges(), 2u);
  expect_healthy(dc, "sanitize");
}

TEST_P(Connectivity, DeleteSanitization) {
  batch_dynamic_connectivity dc(10, opts());
  dc.insert({1, 2});
  std::vector<edge> del = {{2, 1}, {1, 2}, {7, 8}, {9, 9}};
  dc.batch_delete(del);
  EXPECT_EQ(dc.num_edges(), 0u);
  EXPECT_FALSE(dc.connected(1, 2));
  expect_healthy(dc, "delete-sanitize");
}

TEST_P(Connectivity, TriangleReplacement) {
  batch_dynamic_connectivity dc(3, opts());
  dc.batch_insert(std::vector<edge>{{0, 1}, {1, 2}, {0, 2}});
  dc.erase({0, 1});
  EXPECT_TRUE(dc.connected(0, 1));
  EXPECT_EQ(dc.num_edges(), 2u);
  expect_healthy(dc, "triangle");
  dc.erase({0, 2});
  EXPECT_FALSE(dc.connected(0, 1));
  EXPECT_TRUE(dc.connected(1, 2));
  expect_healthy(dc, "triangle-2");
}

TEST_P(Connectivity, BatchShattersComponent) {
  // A star: deleting all spokes in one batch creates n pieces.
  const vertex_id n = 64;
  batch_dynamic_connectivity dc(n, opts());
  dc.batch_insert(gen_star(n));
  EXPECT_EQ(dc.component_size(0), n);
  std::vector<edge> all;
  for (vertex_id i = 1; i < n; ++i) all.push_back({0, i});
  dc.batch_delete(all);
  for (vertex_id i = 1; i < n; ++i) EXPECT_FALSE(dc.connected(0, i));
  EXPECT_EQ(dc.num_edges(), 0u);
  expect_healthy(dc, "shatter");
}

TEST_P(Connectivity, GridRowDeletion) {
  const vertex_id rows = 8, cols = 8;
  batch_dynamic_connectivity dc(rows * cols, opts());
  dc.batch_insert(gen_grid(rows, cols));
  expect_healthy(dc, "grid-build");
  // Sever the grid between rows 3 and 4 in one batch.
  std::vector<edge> cut;
  for (vertex_id c = 0; c < cols; ++c)
    cut.push_back({3 * cols + c, 4 * cols + c});
  dc.batch_delete(cut);
  EXPECT_FALSE(dc.connected(0, rows * cols - 1));
  EXPECT_TRUE(dc.connected(0, 3 * cols + 7));
  EXPECT_TRUE(dc.connected(4 * cols, rows * cols - 1));
  EXPECT_EQ(dc.component_size(0), 4u * cols);
  expect_healthy(dc, "grid-cut");
}

TEST_P(Connectivity, MixedTreeAndNonTreeDeletion) {
  batch_dynamic_connectivity dc(6, opts());
  dc.batch_insert(
      std::vector<edge>{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}, {4, 5}});
  // Delete a mix: non-tree (0,3)-or-tree plus a bridge (4,5).
  dc.batch_delete(std::vector<edge>{{0, 3}, {4, 5}});
  EXPECT_TRUE(dc.connected(0, 3));
  EXPECT_FALSE(dc.connected(0, 5));
  expect_healthy(dc, "mixed");
}

TEST_P(Connectivity, ReinsertAfterDelete) {
  batch_dynamic_connectivity dc(8, opts());
  for (int round = 0; round < 30; ++round) {
    dc.batch_insert(gen_path(8));
    ASSERT_TRUE(dc.connected(0, 7));
    dc.batch_delete(gen_path(8));
    ASSERT_FALSE(dc.connected(0, 7));
  }
  expect_healthy(dc, "reinsert");
}

TEST_P(Connectivity, ComponentsLabeling) {
  batch_dynamic_connectivity dc(9, opts());
  dc.batch_insert(std::vector<edge>{{0, 1}, {1, 2}, {4, 5}, {7, 8}});
  auto labels = dc.components();
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 0u);
  EXPECT_EQ(labels[2], 0u);
  EXPECT_EQ(labels[3], 3u);
  EXPECT_EQ(labels[4], 4u);
  EXPECT_EQ(labels[5], 4u);
  EXPECT_EQ(labels[6], 6u);
  EXPECT_EQ(labels[7], 7u);
  EXPECT_EQ(labels[8], 7u);
}

TEST_P(Connectivity, BatchQueries) {
  batch_dynamic_connectivity dc(6, opts());
  dc.batch_insert(std::vector<edge>{{0, 1}, {2, 3}});
  std::vector<std::pair<vertex_id, vertex_id>> qs = {
      {0, 1}, {1, 0}, {0, 2}, {2, 3}, {4, 5}, {5, 5}};
  auto ans = dc.batch_connected(qs);
  EXPECT_EQ(ans, (std::vector<bool>{true, true, false, true, false, true}));
}

TEST_P(Connectivity, StatsProgress) {
  batch_dynamic_connectivity dc(32, opts());
  auto es = gen_erdos_renyi(32, 120, 77);
  dc.batch_insert(es);
  EXPECT_EQ(dc.stats().edges_inserted, 120u);
  dc.batch_delete(es);
  EXPECT_EQ(dc.stats().edges_deleted, 120u);
  EXPECT_GT(dc.stats().tree_edges_deleted, 0u);
  EXPECT_GT(dc.stats().levels_searched, 0u);
  dc.reset_stats();
  EXPECT_EQ(dc.stats().edges_deleted, 0u);
}

TEST_P(Connectivity, HostileVertexIdsDoNotCrash) {
  // Regression (ISSUE 5): ids outside [0, n) — e.g. from a hand-edited
  // or truncated stream file — used to flow straight into batch_find_rep
  // and the substrates' per-vertex arrays. Every public entry point must
  // now give the documented answer instead of indexing out of bounds.
  const vertex_id n = 10;
  batch_dynamic_connectivity dc(n, opts());
  dc.batch_insert(std::vector<edge>{{0, 1}, {1, 2}, {3, 4}});

  // Updates: out-of-range edges are dropped, valid ones still land.
  std::vector<edge> hostile_ins = {{5, n},          {n, 5},
                                   {70000, 70001},  {kNoVertex, 0},
                                   {kNoVertex, kNoVertex}, {5, 6}};
  dc.batch_insert(hostile_ins);
  EXPECT_EQ(dc.num_edges(), 4u);
  EXPECT_TRUE(dc.has_edge({5, 6}));
  EXPECT_FALSE(dc.has_edge({5, n}));
  expect_healthy(dc, "hostile-insert");

  std::vector<edge> hostile_del = {{n, 5}, {70000, 70001}, {0, kNoVertex},
                                   {1, 2}};
  dc.batch_delete(hostile_del);
  EXPECT_EQ(dc.num_edges(), 3u);
  EXPECT_FALSE(dc.has_edge({1, 2}));
  expect_healthy(dc, "hostile-delete");

  // Queries: any out-of-range endpoint answers false / size 0.
  EXPECT_FALSE(dc.connected(0, n));
  EXPECT_FALSE(dc.connected(n, 0));
  EXPECT_FALSE(dc.connected(kNoVertex, kNoVertex));
  EXPECT_EQ(dc.component_size(n), 0u);
  EXPECT_EQ(dc.component_size(kNoVertex), 0u);
  std::vector<std::pair<vertex_id, vertex_id>> qs = {
      {0, 1}, {0, n}, {n, n}, {kNoVertex, 3}, {3, 4}, {70000, 2}};
  auto ans = dc.batch_connected(qs);
  EXPECT_EQ(ans,
            (std::vector<bool>{true, false, false, false, true, false}));

  // Single-edge conveniences route through the same validation.
  dc.insert({n + 3, n + 4});
  dc.erase({n + 3, n + 4});
  EXPECT_EQ(dc.num_edges(), 3u);
  expect_healthy(dc, "hostile-singles");
}

TEST_P(Connectivity, ZeroVertexStructure) {
  // n == 0: EVERY id is out of range, including the {0,0} probe the
  // batch query path remaps hostile queries onto (regression: this used
  // to index an empty per-vertex array).
  batch_dynamic_connectivity dc(0, opts());
  EXPECT_EQ(dc.num_vertices(), 0u);
  EXPECT_FALSE(dc.connected(0, 0));
  EXPECT_EQ(dc.component_size(0), 0u);
  std::vector<std::pair<vertex_id, vertex_id>> qs = {{0, 0}, {1, 2}};
  EXPECT_EQ(dc.batch_connected(qs), (std::vector<bool>{false, false}));
  dc.insert({0, 1});
  dc.erase({0, 1});
  EXPECT_EQ(dc.num_edges(), 0u);
  EXPECT_TRUE(dc.components().empty());
  expect_healthy(dc, "n=0");
}

INSTANTIATE_TEST_SUITE_P(Substrates, Connectivity,
                         ::testing::ValuesIn(kSubConfigs), config_name);

// ---------------------------------------------------------------------
// Configuration-label normalization (ISSUE 5 satellite): a policy whose
// low substrate equals the primary one is uniform, and neither the
// structure nor any label derived from it may claim otherwise.
// ---------------------------------------------------------------------

TEST(ConfigLabel, UniformPolicyIsNormalized) {
  options o;
  o.substrate = substrate::blocked;
  o.policy = level_policy{8, substrate::blocked};  // nominally "mixed"
  EXPECT_EQ(config_label(o), "blocked");
  batch_dynamic_connectivity dc(64, o);
  EXPECT_FALSE(dc.levels().policy().mixed());
  EXPECT_EQ(dc.levels().substrate_at(0), substrate::blocked);
}

TEST(ConfigLabel, GenuinelyMixedPolicyKeepsSuffix) {
  options o;
  o.substrate = substrate::skiplist;
  o.policy = level_policy{3, substrate::blocked};
  EXPECT_EQ(config_label(o), "skiplist+blocked<3");
  batch_dynamic_connectivity dc(64, o);
  EXPECT_TRUE(dc.levels().policy().mixed());
  EXPECT_EQ(dc.levels().substrate_at(0), substrate::blocked);
  EXPECT_EQ(dc.levels().substrate_at(dc.levels().top()),
            substrate::skiplist);
}

TEST(ConfigLabel, ThresholdZeroIsUniform) {
  options o;
  o.substrate = substrate::treap;
  o.policy = level_policy{0, substrate::blocked};  // threshold 0 = uniform
  EXPECT_EQ(config_label(o), "treap");
}

class EngineSweep
    : public ::testing::TestWithParam<
          std::tuple<level_search_kind, sub_config>> {};

TEST_P(EngineSweep, DenseThenFullDeletion) {
  auto [engine, cfg] = GetParam();
  options o;
  o.search = engine;
  o = cfg.apply(o);
  const vertex_id n = 48;
  batch_dynamic_connectivity dc(n, o);
  auto es = gen_erdos_renyi(n, 400, 123);
  dc.batch_insert(es);
  EXPECT_TRUE(dc.connected(0, n - 1));
  expect_healthy(dc, "dense-build");
  // Delete everything in a few large batches.
  size_t third = es.size() / 3;
  dc.batch_delete(std::span<const edge>(es.data(), third));
  expect_healthy(dc, "dense-del-1");
  dc.batch_delete(std::span<const edge>(es.data() + third, third));
  expect_healthy(dc, "dense-del-2");
  dc.batch_delete(
      std::span<const edge>(es.data() + 2 * third, es.size() - 2 * third));
  expect_healthy(dc, "dense-del-3");
  EXPECT_EQ(dc.num_edges(), 0u);
  for (vertex_id v = 1; v < n; ++v) ASSERT_FALSE(dc.connected(0, v));
}

std::string engine_name(
    const ::testing::TestParamInfo<
        std::tuple<level_search_kind, sub_config>>& info) {
  level_search_kind engine = std::get<0>(info.param);
  const char* e = engine == level_search_kind::interleaved ? "interleaved"
                  : engine == level_search_kind::simple    ? "simple"
                                                           : "scanall";
  return std::string(e) + "_" + std::get<1>(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineSweep,
    ::testing::Combine(::testing::Values(level_search_kind::interleaved,
                                         level_search_kind::simple,
                                         level_search_kind::scan_all),
                       ::testing::ValuesIn(kSubConfigs)),
    engine_name);

}  // namespace
}  // namespace bdc
