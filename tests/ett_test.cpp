// Euler-tour substrate tests, value-parameterized over every backend
// (skip list, treap, blocked), each driven through ett_forest:
// model-based randomized batches of links/cuts against a union-find
// oracle, augmentation counters, fetch primitives, and internal
// consistency after every batch. Every backend must satisfy the
// identical forest contract.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "ett/ett_forest.hpp"
#include "ett/ett_substrate.hpp"
#include "gen/graph_gen.hpp"
#include "spanning/union_find.hpp"
#include "test_substrates.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::ett_config;
using ::bdc::testing::kEttConfigs;

class EttSubstrate : public ::testing::TestWithParam<ett_config> {
 protected:
  [[nodiscard]] ett_forest make(vertex_id n,
                                uint64_t seed = 0xe77e77) const {
    return ett_forest(GetParam().sub, n, seed);
  }
};

std::string config_name(const ::testing::TestParamInfo<ett_config>& info) {
  return info.param.name;
}

TEST_P(EttSubstrate, EmptyForestBasics) {
  ett_forest f = make(10);
  EXPECT_EQ(f.substrate_kind(), GetParam().sub);
  EXPECT_EQ(f.num_vertices(), 10u);
  EXPECT_EQ(f.num_edges(), 0u);
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_TRUE(f.connected(3, 3));
  EXPECT_EQ(f.component_size(4), 1u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, SingleLinkCut) {
  ett_forest f = make(4);
  f.link({0, 1});
  EXPECT_TRUE(f.connected(0, 1));
  EXPECT_TRUE(f.has_edge({1, 0}));
  EXPECT_EQ(f.component_size(0), 2u);
  EXPECT_TRUE(f.check_consistency().empty());
  f.cut({0, 1});
  EXPECT_FALSE(f.connected(0, 1));
  EXPECT_EQ(f.component_size(0), 1u);
  EXPECT_EQ(f.num_edges(), 0u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, LinkWholePathThenCutMiddle) {
  const vertex_id n = 64;
  ett_forest f = make(n);
  auto path = gen_path(n);
  f.batch_link(path);
  EXPECT_TRUE(f.connected(0, n - 1));
  EXPECT_EQ(f.component_size(17), n);
  f.cut({31, 32});
  EXPECT_FALSE(f.connected(0, n - 1));
  EXPECT_TRUE(f.connected(0, 31));
  EXPECT_TRUE(f.connected(32, n - 1));
  EXPECT_EQ(f.component_size(0), 32u);
  EXPECT_EQ(f.component_size(63), 32u);
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, StarBatchLink) {
  const vertex_id n = 100;
  ett_forest f = make(n);
  f.batch_link(gen_star(n));
  EXPECT_EQ(f.component_size(0), n);
  EXPECT_TRUE(f.check_consistency().empty());
  // Cut every other spoke in one batch.
  std::vector<edge> cuts;
  for (vertex_id i = 1; i < n; i += 2) cuts.push_back({0, i});
  f.batch_cut(cuts);
  for (vertex_id i = 1; i < n; ++i)
    EXPECT_EQ(f.connected(0, i), i % 2 == 0) << i;
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, CountsAndFetch) {
  ett_forest f = make(8);
  f.batch_link(gen_path(8));
  std::vector<ett_substrate::count_delta> deltas = {{2, 1, 3}, {5, 0, 2}};
  f.batch_add_counts(deltas);
  auto cc = f.component_counts(0);
  EXPECT_EQ(cc.vertices, 8u);
  EXPECT_EQ(cc.tree_edges, 1u);
  EXPECT_EQ(cc.nontree_edges, 5u);
  // Fetch should return slots summing to min(want, 5).
  for (uint64_t want : {1ul, 3ul, 5ul, 99ul}) {
    auto slots = f.fetch_nontree(4, want);
    uint64_t sum = 0;
    for (auto& [v, take] : slots) {
      EXPECT_TRUE(v == 2 || v == 5);
      sum += take;
    }
    EXPECT_EQ(sum, std::min<uint64_t>(want, 5));
  }
  auto tslots = f.fetch_tree(7, 10);
  ASSERT_EQ(tslots.size(), 1u);
  EXPECT_EQ(tslots[0].first, 2u);
  EXPECT_EQ(tslots[0].second, 1u);
  // Deltas can be negative.
  std::vector<ett_substrate::count_delta> down = {{2, -1, -3}, {5, 0, -2}};
  f.batch_add_counts(down);
  cc = f.component_counts(0);
  EXPECT_EQ(cc.tree_edges, 0u);
  EXPECT_EQ(cc.nontree_edges, 0u);
}

TEST_P(EttSubstrate, ComponentVerticesMatchesTour) {
  ett_forest f = make(10);
  f.batch_link(std::vector<edge>{{0, 1}, {1, 2}, {2, 3}});
  auto vs = f.component_vertices(2);
  std::set<vertex_id> got(vs.begin(), vs.end());
  EXPECT_EQ(got, (std::set<vertex_id>{0, 1, 2, 3}));
}

TEST_P(EttSubstrate, RelinkAfterCutSameBatchBoundary) {
  // Cut and relink the same edge repeatedly: exercises the pooled node
  // recycling paths (cut arcs must be reusable by the next link).
  ett_forest f = make(6);
  for (int i = 0; i < 50; ++i) {
    f.link({2, 4});
    ASSERT_TRUE(f.connected(2, 4));
    f.cut({2, 4});
    ASSERT_FALSE(f.connected(2, 4));
  }
  EXPECT_TRUE(f.check_consistency().empty());
}

TEST_P(EttSubstrate, HoistedVisitMatchesForwarders) {
  // The visit hook (one dispatch hoisted around a loop) must see exactly
  // the forest the per-call forwarders see.
  const vertex_id n = 32;
  ett_forest f = make(n);
  f.batch_link(gen_path(16));
  f.visit([&](auto& fc) {
    for (vertex_id v = 0; v + 1 < n; ++v) {
      ASSERT_EQ(fc.connected(v, v + 1), f.connected(v, v + 1)) << v;
      ASSERT_EQ(fc.find_rep(v), f.find_rep(v)) << v;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Substrates, EttSubstrate,
                         ::testing::ValuesIn(kEttConfigs), config_name);

class EttRandomSweep
    : public ::testing::TestWithParam<
          std::tuple<std::pair<int, int>, ett_config>> {};

TEST_P(EttRandomSweep, BatchesAgainstUnionFindOracle) {
  auto [trial_n, cfg] = GetParam();
  auto [trial, nn] = trial_n;
  const vertex_id n = static_cast<vertex_id>(nn);
  random_stream rs(trial * 131 + nn);
  ett_forest f(cfg.sub, n, 1000 + static_cast<uint64_t>(trial));
  std::set<std::pair<vertex_id, vertex_id>> tree_edges;
  for (int round = 0; round < 25; ++round) {
    // Random batch of links among distinct components.
    union_find tmp(n);
    for (auto& te : tree_edges) tmp.unite(te.first, te.second);
    std::vector<edge> batch;
    int tries = 10 + static_cast<int>(rs.next(30));
    for (int t = 0; t < tries; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      if (u == v) continue;
      if (tmp.unite(u, v)) batch.push_back({u, v});
    }
    f.batch_link(batch);
    for (auto e : batch)
      tree_edges.insert({e.canonical().u, e.canonical().v});
    ASSERT_TRUE(f.check_consistency().empty()) << "after link r" << round;

    // Random batch of cuts.
    std::vector<edge> cuts;
    for (auto& te : tree_edges)
      if (rs.next(3) == 0) cuts.push_back({te.first, te.second});
    f.batch_cut(cuts);
    for (auto& c : cuts)
      tree_edges.erase({c.canonical().u, c.canonical().v});
    ASSERT_TRUE(f.check_consistency().empty()) << "after cut r" << round;

    // Oracle comparison: connectivity, sizes, batch queries.
    union_find oracle(n);
    for (auto& te : tree_edges) oracle.unite(te.first, te.second);
    std::vector<std::pair<vertex_id, vertex_id>> qs;
    for (int q = 0; q < 60; ++q)
      qs.push_back({static_cast<vertex_id>(rs.next(n)),
                    static_cast<vertex_id>(rs.next(n))});
    auto got = f.batch_connected(qs);
    for (size_t q = 0; q < qs.size(); ++q)
      ASSERT_EQ(got[q], oracle.connected(qs[q].first, qs[q].second))
          << "round " << round;
    for (int q = 0; q < 8; ++q) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      size_t sz = 0;
      for (vertex_id x = 0; x < n; ++x)
        if (oracle.connected(u, x)) sz++;
      ASSERT_EQ(f.component_size(u), sz) << "round " << round;
    }
    // Representative semantics.
    auto reps = f.batch_find_rep(std::vector<vertex_id>{0, n / 2, n - 1});
    EXPECT_EQ(reps[0] == reps[2], oracle.connected(0, n - 1));
  }
}

std::string sweep_name(
    const ::testing::TestParamInfo<
        std::tuple<std::pair<int, int>, ett_config>>& info) {
  const auto& trial_n = std::get<0>(info.param);
  return std::string(std::get<1>(info.param).name) + "_t" +
         std::to_string(trial_n.first) + "_n" +
         std::to_string(trial_n.second);
}

INSTANTIATE_TEST_SUITE_P(
    Trials, EttRandomSweep,
    ::testing::Combine(
        ::testing::Values(std::pair<int, int>{0, 2},
                          std::pair<int, int>{1, 3},
                          std::pair<int, int>{2, 16},
                          std::pair<int, int>{3, 100},
                          std::pair<int, int>{4, 100},
                          std::pair<int, int>{5, 400},
                          std::pair<int, int>{6, 1000}),
        ::testing::ValuesIn(kEttConfigs)),
    sweep_name);

}  // namespace
}  // namespace bdc
