// BM_ConcurrentServe — update-batch throughput under concurrent query
// serving (ISSUE 6). A persistent batch_dynamic_connectivity with the
// epoch-snapshot read service enabled churns insert/delete batches while
// R reader threads (started once, OUTSIDE the timing loop) hammer
// snapshot_query()->connected(). The sweep crosses R in {0, 2, 4} with
// the skiplist substrate (readers served from the per-batch snapshot)
// and the blocked substrate (readers take the seqlock-validated live
// probe between batches). R=0 isolates the serving overhead itself: the
// snapshot publish every batch plus epoch bookkeeping.
//
// Counters: "served" is the total number of concurrent queries answered
// across the whole run; "served/s" the rate against benchmark time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "gen/graph_gen.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

using namespace bdc;

namespace {
constexpr vertex_id kN = 4096;
constexpr size_t kM = 2 * static_cast<size_t>(kN);
constexpr size_t kBatch = 512;
}  // namespace

static void BM_ConcurrentServe(benchmark::State& state) {
  const auto readers = static_cast<unsigned>(state.range(0));
  const substrate sub =
      state.range(1) == 0 ? substrate::skiplist : substrate::blocked;
  auto graph = gen_erdos_renyi(kN, kM, 7);
  std::vector<std::vector<edge>> batches;
  for (size_t i = 0; i < graph.size(); i += kBatch) {
    batches.emplace_back(
        graph.begin() + static_cast<ptrdiff_t>(i),
        graph.begin() +
            static_cast<ptrdiff_t>(std::min(i + kBatch, graph.size())));
  }

  options o;
  o.substrate = sub;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(kN, o);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (unsigned t = 0; t < readers; ++t) {
    pool.emplace_back([&s, &stop, &served, t] {
      random_stream rng(hash_combine(0xbe7c, t));
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto view = s.snapshot_query();
        uint64_t st = 0;
        benchmark::DoNotOptimize(
            view.connected(static_cast<vertex_id>(rng.next(kN)),
                           static_cast<vertex_id>(rng.next(kN)), &st));
        ++local;
      }
      served.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Each iteration builds the graph up and tears it back down, so the
  // structure re-enters the same (empty) state and iterations compose.
  for (auto _ : state) {
    timer t;
    for (const auto& b : batches) s.batch_insert(b);
    for (const auto& b : batches) s.batch_delete(b);
    state.SetIterationTime(t.elapsed());
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  state.SetItemsProcessed(static_cast<int64_t>(2 * graph.size()) *
                          state.iterations());
  state.counters["served"] = static_cast<double>(served.load());
  state.counters["served/s"] = benchmark::Counter(
      static_cast<double>(served.load()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcurrentServe)
    ->ArgsProduct({{0, 2, 4}, {0, 1}})
    ->ArgNames({"readers", "blocked"})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// BM_SnapshotPublish — per-batch snapshot publish cost as a function of n
// and batch size. The base graph is a sea of disjoint 16-vertex path
// clusters; each iteration deletes and re-inserts one batch of
// intra-cluster edges, touching only the first batch/15-ish clusters. The
// incremental publisher relabels O(batch) vertices per commit, so the
// "publish_us/batch" counter should stay flat as logn grows at fixed
// batch (a full O(n) walk per commit would scale with n instead).
static void BM_SnapshotPublish(benchmark::State& state) {
  const vertex_id n = vertex_id{1} << state.range(0);
  const size_t batch = static_cast<size_t>(state.range(1));
  constexpr vertex_id kCluster = 16;

  options o;
  o.substrate = substrate::blocked;
  o.concurrent_reads = true;
  batch_dynamic_connectivity s(n, o);
  {
    std::vector<edge> es;
    es.reserve(1u << 16);
    for (vertex_id v = 0; v + 1 < n; ++v) {
      if ((v + 1) % kCluster != 0) es.push_back({v, v + 1});
      if (es.size() == (1u << 16)) {
        s.batch_insert(es);
        es.clear();
      }
    }
    if (!es.empty()) s.batch_insert(es);
  }
  // The churn batch: the first `batch` intra-cluster edges.
  std::vector<edge> churn;
  for (vertex_id v = 0; churn.size() < batch && v + 1 < n; ++v)
    if ((v + 1) % kCluster != 0) churn.push_back({v, v + 1});
  const uint64_t warmup_publishes = s.stats().snapshots_published;
  const uint64_t warmup_micros = s.stats().publish_micros;

  for (auto _ : state) {
    s.batch_delete(churn);
    s.batch_insert(churn);
  }

  const auto& st = s.stats();
  const uint64_t publishes = st.snapshots_published - warmup_publishes;
  state.counters["publish_us/batch"] =
      publishes == 0 ? 0.0
                     : static_cast<double>(st.publish_micros -
                                           warmup_micros) /
                           static_cast<double>(publishes);
  state.counters["relabeled"] = static_cast<double>(st.publish_relabeled);
  state.counters["full_walks"] = static_cast<double>(st.publishes_full);
  state.SetItemsProcessed(static_cast<int64_t>(2 * churn.size()) *
                          state.iterations());
}
BENCHMARK(BM_SnapshotPublish)
    ->ArgsProduct({{16, 20}, {64, 256}})
    ->ArgNames({"logn", "batch"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
