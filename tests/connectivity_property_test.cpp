// Randomized property tests for the core structure: every engine, several
// graph shapes and batch regimes, driven in lock-step with a union-find
// recompute oracle AND the independent sequential HDT implementation.
// Invariants are re-validated after every batch.
//
// Every scenario runs at three worker-pool sizes — 1, 2, and the hardware
// default — because scheduler-dependent bugs (racy batch phases, grouping
// that silently assumes one worker) only surface when the pool actually
// forks, and CI machines default to whatever nproc happens to be. The
// grid is additionally crossed with the substrate configurations: each
// uniform backend (skiplist, treap, blocked) plus the mixed per-level
// policies (every ordered pair of backends, one below a threshold and
// the other above), so the policy hook's cross-substrate handoffs get
// the same oracle scrutiny.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "spanning/union_find.hpp"
#include "test_substrates.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kSubConfigs;
using ::bdc::testing::kWorkerGrid;
using ::bdc::testing::sub_config;
using ::bdc::testing::worker_pool_guard;
using ::bdc::testing::workers_name;

struct scenario {
  level_search_kind engine;
  int n;
  int rounds;
  int insert_rate;  // percent of round budget that are insertions
  uint64_t seed;
};

class PropertySweep
    : public ::testing::TestWithParam<
          std::tuple<scenario, unsigned, sub_config>> {};

TEST_P(PropertySweep, OracleLockstep) {
  const scenario sc = std::get<0>(GetParam());
  worker_pool_guard pool(std::get<1>(GetParam()));
  const sub_config& cfg = std::get<2>(GetParam());
  const vertex_id n = static_cast<vertex_id>(sc.n);
  random_stream rs(sc.seed);
  options o;
  o.search = sc.engine;
  o.seed = sc.seed * 3 + 1;
  o = cfg.apply(o);
  batch_dynamic_connectivity dc(n, o);
  hdt_connectivity hdt(n, sc.seed * 5 + 2);
  std::set<std::pair<vertex_id, vertex_id>> present;

  for (int round = 0; round < sc.rounds; ++round) {
    // Insertion batch (with deliberate garbage: dups, self-loops).
    std::vector<edge> ins;
    int ni = 1 + static_cast<int>(rs.next(30));
    for (int t = 0; t < ni; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      ins.push_back({u, v});
      if (rs.next(10) == 0) ins.push_back({v, u});
    }
    if (rs.next(100) < static_cast<uint64_t>(sc.insert_rate)) {
      dc.batch_insert(ins);
      hdt.batch_insert(ins);
      for (auto e : ins)
        if (!e.is_self_loop())
          present.insert({e.canonical().u, e.canonical().v});
      auto rep = dc.check_invariants();
      ASSERT_TRUE(rep.ok) << "insert r" << round << ": " << rep.message;
    }

    // Deletion batch.
    std::vector<edge> del;
    for (auto& pe : present)
      if (rs.next(100) < 30) del.push_back({pe.first, pe.second});
    del.push_back({static_cast<vertex_id>(rs.next(n)),
                   static_cast<vertex_id>(rs.next(n))});  // mostly absent
    dc.batch_delete(del);
    hdt.batch_delete(del);
    for (auto& e : del) present.erase({e.canonical().u, e.canonical().v});
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << "delete r" << round << ": " << rep.message;
    ASSERT_TRUE(hdt.check_invariants().empty()) << "hdt r" << round;

    // Cross-validation: dc vs union-find vs HDT.
    union_find oracle(n);
    for (auto& pe : present) oracle.unite(pe.first, pe.second);
    std::vector<std::pair<vertex_id, vertex_id>> qs;
    for (int q = 0; q < 80; ++q)
      qs.push_back({static_cast<vertex_id>(rs.next(n)),
                    static_cast<vertex_id>(rs.next(n))});
    auto got = dc.batch_connected(qs);
    auto got_hdt = hdt.batch_connected(qs);
    for (size_t q = 0; q < qs.size(); ++q) {
      bool expect = oracle.connected(qs[q].first, qs[q].second);
      ASSERT_EQ(got[q], expect) << "r" << round << " q" << q;
      ASSERT_EQ(got_hdt[q], expect) << "r" << round << " q" << q;
    }
    ASSERT_EQ(dc.num_edges(), present.size());
    ASSERT_EQ(hdt.num_edges(), present.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PropertySweep,
    ::testing::Combine(
        ::testing::Values(
            scenario{level_search_kind::interleaved, 60, 25, 80, 101},
            scenario{level_search_kind::interleaved, 200, 20, 70, 102},
            scenario{level_search_kind::interleaved, 500, 12, 60, 103},
            scenario{level_search_kind::simple, 60, 25, 80, 104},
            scenario{level_search_kind::simple, 200, 20, 70, 105},
            scenario{level_search_kind::simple, 500, 12, 60, 106},
            scenario{level_search_kind::scan_all, 60, 20, 80, 107},
            scenario{level_search_kind::scan_all, 200, 15, 70, 108},
            scenario{level_search_kind::interleaved, 17, 30, 75, 109},
            scenario{level_search_kind::simple, 17, 30, 75, 110}),
        ::testing::ValuesIn(kWorkerGrid), ::testing::ValuesIn(kSubConfigs)),
    [](const ::testing::TestParamInfo<std::tuple<scenario, unsigned,
                                                 sub_config>>& info) {
      const scenario& sc = std::get<0>(info.param);
      return "seed" + std::to_string(sc.seed) + "_w" +
             workers_name(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param).name;
    });

// Structured stress: repeatedly shatter a dense random graph with very
// large deletion batches (the regime Theorem 9 targets).
class ShatterSweep
    : public ::testing::TestWithParam<
          std::tuple<level_search_kind, unsigned, sub_config>> {};

TEST_P(ShatterSweep, LargeBatchLifecycle) {
  options o;
  o.search = std::get<0>(GetParam());
  o = std::get<2>(GetParam()).apply(o);
  worker_pool_guard pool(std::get<1>(GetParam()));
  const vertex_id n = 256;
  batch_dynamic_connectivity dc(n, o);
  for (int cycle = 0; cycle < 3; ++cycle) {
    auto es = gen_erdos_renyi(n, 1200, 500 + cycle);
    dc.batch_insert(es);
    auto rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << rep.message;
    ASSERT_TRUE(dc.connected(0, n - 1));
    // Delete in two giant batches.
    size_t half = es.size() / 2;
    dc.batch_delete(std::span<const edge>(es.data(), half));
    rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << rep.message;
    dc.batch_delete(
        std::span<const edge>(es.data() + half, es.size() - half));
    rep = dc.check_invariants();
    ASSERT_TRUE(rep.ok) << rep.message;
    ASSERT_EQ(dc.num_edges(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ShatterSweep,
    ::testing::Combine(::testing::Values(level_search_kind::interleaved,
                                         level_search_kind::simple,
                                         level_search_kind::scan_all),
                       ::testing::ValuesIn(kWorkerGrid),
                       ::testing::ValuesIn(kSubConfigs)),
    [](const ::testing::TestParamInfo<
        std::tuple<level_search_kind, unsigned, sub_config>>& info) {
      return "engine" +
             std::to_string(static_cast<int>(std::get<0>(info.param))) + "_w" +
             workers_name(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param).name;
    });

}  // namespace
}  // namespace bdc
