// E10 — substrate cost model, in two halves:
//
//  1. The parallel primitives the analysis treats as O(k) work (semisort
//     [24], parallel dictionary [23], spanning forest [22], scan/pack
//     [34]) should show flat-ish per-element costs as input size grows.
//
//  2. Head-to-head Euler-tour substrate A/B (skiplist vs treap vs
//     blocked) on the identical batch_link / batch_cut / batch_connected
//     workloads, plus pooled vs heap node allocation. Every substrate
//     benchmark takes the substrate as its first argument (0 = skiplist,
//     1 = treap, 2 = blocked), so a single JSON run yields the full
//     comparison matrix. BM_SubstrateSmallComponents isolates the
//     small-component regime the blocked substrate targets, and
//     BM_LevelPolicyStream runs the full dynamic structure under uniform
//     and mixed per-level substrate configurations.
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "ett/ett_forest.hpp"
#include "ett/ett_substrate.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "hashtable/phase_concurrent_map.hpp"
#include "parallel/primitives.hpp"
#include "sequence/semisort.hpp"
#include "spanning/union_find.hpp"
#include "util/node_pool.hpp"
#include "util/random.hpp"

using namespace bdc;

static void BM_Semisort(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bdc::random r(41);
  std::vector<std::pair<uint32_t, uint64_t>> pairs(n);
  for (size_t i = 0; i < n; ++i)
    pairs[i] = {static_cast<uint32_t>(r.ith_rand(i, n / 4 + 1)),
                r.ith_rand(i)};
  for (auto _ : state) {
    auto copy = pairs;
    benchmark::DoNotOptimize(group_by_key(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Semisort)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

static void BM_DictionaryInsertBatch(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::pair<uint64_t, uint64_t>> kvs(n);
  for (size_t i = 0; i < n; ++i) kvs[i] = {hash64(i) | 1, i};
  for (auto _ : state) {
    phase_concurrent_map<uint64_t> m(n);
    m.insert_batch(kvs);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_DictionaryInsertBatch)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

static void BM_SpanningForest(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto es = gen_erdos_renyi(static_cast<vertex_id>(n), 4 * n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanning_forest(n, es));
  }
  state.SetItemsProcessed(static_cast<int64_t>(4 * n) * state.iterations());
}
BENCHMARK(BM_SpanningForest)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

static void BM_ScanPack(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bdc::random r(43);
  std::vector<long> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<long>(r.ith_rand(i, 100));
  for (auto _ : state) {
    auto evens = filter(v, [](long x) { return x % 2 == 0; });
    benchmark::DoNotOptimize(evens);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScanPack)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// ---------------------------------------------------------------------
// Euler-tour substrate A/B. Arg(0): substrate (0 = skiplist, 1 = treap,
// 2 = blocked); Arg(1): batch size k.
// ---------------------------------------------------------------------

namespace {
constexpr vertex_id kEttN = 1 << 14;

substrate substrate_of(const benchmark::State& state) {
  switch (state.range(0)) {
    case 1:
      return substrate::treap;
    case 2:
      return substrate::blocked;
    default:
      return substrate::skiplist;
  }
}

void set_substrate_label(benchmark::State& state) {
  state.SetLabel(to_string(substrate_of(state)));
}
}  // namespace

static void BM_SubstrateLinkCut(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(1));
  ett_forest f(substrate_of(state), kEttN, 11);
  auto forest_edges =
      gen_random_forest(kEttN, kEttN / 2 >= k ? kEttN - k : 1, 12);
  forest_edges.resize(std::min(forest_edges.size(), k));
  std::span<const edge> batch(forest_edges.data(), forest_edges.size());
  for (auto _ : state) {
    f.batch_link(batch);
    f.batch_cut(batch);
  }
  set_substrate_label(state);
  state.SetItemsProcessed(static_cast<int64_t>(2 * batch.size()) *
                          state.iterations());
}
BENCHMARK(BM_SubstrateLinkCut)
    ->ArgsProduct({{0, 1, 2}, {16, 256, 4096}})
    ->ArgNames({"substrate", "k"});

static void BM_SubstrateBatchConnected(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(1));
  ett_forest f(substrate_of(state), kEttN, 13);
  f.batch_link(gen_random_forest(kEttN, 16, 14));
  auto qs = make_query_batch(kEttN, k, 15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.batch_connected(qs));
  }
  set_substrate_label(state);
  state.SetItemsProcessed(static_cast<int64_t>(k) * state.iterations());
}
BENCHMARK(BM_SubstrateBatchConnected)
    ->ArgsProduct({{0, 1, 2}, {256, 4096, 65536}})
    ->ArgNames({"substrate", "k"});

static void BM_SubstrateCountsAndFetch(benchmark::State& state) {
  ett_forest f(substrate_of(state), kEttN, 16);
  f.batch_link(gen_random_tree(kEttN, 17));
  std::vector<ett_substrate::count_delta> up(256), down(256);
  for (uint32_t i = 0; i < 256; ++i) {
    up[i] = {i * 5, 0, 2};
    down[i] = {i * 5, 0, -2};
  }
  for (auto _ : state) {
    f.batch_add_counts(up);
    benchmark::DoNotOptimize(f.fetch_nontree(7, 128));
    f.batch_add_counts(down);
  }
  set_substrate_label(state);
  state.SetItemsProcessed(512 * state.iterations());
}
BENCHMARK(BM_SubstrateCountsAndFetch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("substrate");

// ---------------------------------------------------------------------
// The small-component regime (De Man et al. 2024): a forest of many
// components of size S under intra-component link/cut churn plus
// connectivity queries. This is where the HDT hierarchy's low levels
// live (level i caps components at 2^(i+1)), i.e. the regime the
// per-level policy hands to the blocked substrate. Arg(0): substrate;
// Arg(1): component size S.
// ---------------------------------------------------------------------

static void BM_SubstrateSmallComponents(benchmark::State& state) {
  size_t comp = static_cast<size_t>(state.range(1));
  ett_forest f(substrate_of(state), kEttN, 19);
  // Paths of `comp` vertices; cut/relink each component's middle edge.
  std::vector<edge> middles;
  for (vertex_id base = 0; base + comp <= kEttN;
       base += static_cast<vertex_id>(comp)) {
    std::vector<edge> path;
    for (vertex_id i = 0; i + 1 < comp; ++i)
      path.push_back({base + i, base + i + 1});
    f.batch_link(path);
    middles.push_back(path[path.size() / 2]);
  }
  // Cross-component queries (always disconnected: worst-case walks).
  std::vector<std::pair<vertex_id, vertex_id>> qs(middles.size());
  bdc::random qr(23);
  for (size_t i = 0; i < qs.size(); ++i)
    qs[i] = {static_cast<vertex_id>(qr.ith_rand(2 * i, kEttN)),
             static_cast<vertex_id>(qr.ith_rand(2 * i + 1, kEttN))};
  for (auto _ : state) {
    f.batch_cut(middles);
    f.batch_link(middles);
    benchmark::DoNotOptimize(f.batch_connected(qs));
  }
  set_substrate_label(state);
  state.SetItemsProcessed(static_cast<int64_t>(3 * middles.size()) *
                          state.iterations());
}
BENCHMARK(BM_SubstrateSmallComponents)
    ->ArgsProduct({{0, 1, 2}, {4, 16, 64, 256}})
    ->ArgNames({"substrate", "comp"});

// ---------------------------------------------------------------------
// Uniform vs mixed per-level policy on the full dynamic structure: one
// deletion stream (insert + batched deletes + queries) replayed under
// uniform skiplist (0), uniform blocked (1), and the mixed policy (2:
// blocked below level 8, skip list above). Arg: config.
// ---------------------------------------------------------------------

static void BM_LevelPolicyStream(benchmark::State& state) {
  const vertex_id n = 1 << 12;
  auto graph = gen_erdos_renyi(n, 4 * n, 29);
  auto stream = make_deletion_stream(graph, n, 512, 256, 128, 30);
  options o;
  const char* label = "skiplist";
  switch (state.range(0)) {
    case 1:
      o.substrate = substrate::blocked;
      label = "blocked";
      break;
    case 2:
      o.substrate = substrate::skiplist;
      o.policy = level_policy{8, substrate::blocked};
      label = "mixed_blocked_lt8";
      break;
    default:
      break;
  }
  size_t ops = 0;
  for (auto _ : state) {
    batch_dynamic_connectivity dc(n, o);
    ops = 0;
    for (const auto& b : stream) {
      switch (b.op) {
        case update_batch::kind::insert:
          dc.batch_insert(b.edges);
          ops += b.edges.size();
          break;
        case update_batch::kind::erase:
          dc.batch_delete(b.edges);
          ops += b.edges.size();
          break;
        case update_batch::kind::query:
          benchmark::DoNotOptimize(dc.batch_connected(b.queries));
          ops += b.queries.size();
          break;
      }
    }
  }
  state.SetLabel(label);
  state.SetItemsProcessed(static_cast<int64_t>(ops) * state.iterations());
}
BENCHMARK(BM_LevelPolicyStream)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("config");

// ---------------------------------------------------------------------
// Treap mutation scaling: the join-based bulk link/cut phases at several
// worker-pool sizes. workers=1 takes the substrate's sequential
// split/merge fallback, so the 1-worker row IS the pre-join baseline and
// the ≥2-worker rows measure the parallel speedup on identical batches.
// ---------------------------------------------------------------------

static void BM_TreapMutationWorkers(benchmark::State& state) {
  unsigned workers = static_cast<unsigned>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  unsigned before = num_workers();
  set_num_workers(workers);
  {
    // Scope the forest so its worker-sliced node pool dies before the
    // pool size is restored.
    ett_forest f(substrate::treap, kEttN, 21);
    auto forest_edges =
        gen_random_forest(kEttN, kEttN / 2 >= k ? kEttN - k : 1, 22);
    forest_edges.resize(std::min(forest_edges.size(), k));
    std::span<const edge> batch(forest_edges.data(), forest_edges.size());
    for (auto _ : state) {
      f.batch_link(batch);
      f.batch_cut(batch);
    }
    state.SetItemsProcessed(static_cast<int64_t>(2 * batch.size()) *
                            state.iterations());
  }
  set_num_workers(before);
}
BENCHMARK(BM_TreapMutationWorkers)
    ->ArgsProduct({{1, 2, 4, 8}, {256, 4096}})
    ->ArgNames({"workers", "k"})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// ---------------------------------------------------------------------
// Pooled vs per-node heap allocation (the acceptance gate for
// util/node_pool.hpp: the pool must not lose to operator new on the
// alloc/free churn a batch insert/delete performs).
// ---------------------------------------------------------------------

static void BM_NodePoolAllocFree(benchmark::State& state) {
  constexpr size_t kNodeBytes = 96;  // typical low-height skip-list node
  node_pool pool;
  std::vector<void*> ps(4096);
  for (auto _ : state) {
    for (auto& p : ps) p = pool.allocate(kNodeBytes);
    for (void* p : ps) pool.deallocate(p, kNodeBytes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(ps.size()) *
                          state.iterations());
}
BENCHMARK(BM_NodePoolAllocFree);

static void BM_HeapAllocFree(benchmark::State& state) {
  constexpr size_t kNodeBytes = 96;
  std::vector<void*> ps(4096);
  for (auto _ : state) {
    for (auto& p : ps) p = ::operator new(kNodeBytes);
    for (void* p : ps) ::operator delete(p);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(ps.size()) *
                          state.iterations());
}
BENCHMARK(BM_HeapAllocFree);

BENCHMARK_MAIN();
