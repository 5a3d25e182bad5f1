#include "pass.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "obs/telemetry.hpp"
#include "parallel/scheduler.hpp"

namespace perfbench {
namespace {

using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Reads per epoch pin: one snapshot_query(), then this many connected().
constexpr int kReadBlock = 64;
/// Recorded reads per reader. When full, every other record is dropped
/// and the sampling stride doubles, so the kept sample always spans the
/// whole run and its memory does not grow with throughput.
constexpr size_t kReadSample = size_t{1} << 14;
/// Trace events per shard between two drains (one round).
constexpr size_t kTraceCapacity = size_t{1} << 15;

class read_sampler {
 public:
  read_sampler() { kept_.reserve(kReadSample); }
  void offer(uint64_t index, const read_record& r) {
    if ((index & (stride_ - 1)) != 0) return;
    if (kept_.size() == kReadSample) {
      // kept_[j] holds read j * stride_; keep the even j.
      for (size_t j = 0; 2 * j < kept_.size(); ++j) kept_[j] = kept_[2 * j];
      kept_.resize(kept_.size() / 2);
      stride_ *= 2;
      if ((index & (stride_ - 1)) != 0) return;
    }
    kept_.push_back(r);
  }
  std::vector<read_record>& kept() { return kept_; }

 private:
  uint64_t stride_ = 1;
  std::vector<read_record> kept_;
};

/// Cache-line aligned: two readers' states must not share a line.
struct alignas(64) reader_state {
  reader_totals totals;
  read_sampler sample;
};

void reader_loop(const bdc::batch_dynamic_connectivity& g, vertex_id n,
                 uint64_t seed, const std::atomic<bool>& stop,
                 std::atomic<int>& ready, reader_state& out) {
  rng r(seed);
  reader_totals t;  // thread-local until the loop ends
  bool announced = false;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto t0 = clock_type::now();
    auto view = g.snapshot_query();
    const auto t1 = clock_type::now();
    for (int j = 0; j < kReadBlock; ++j) {
      const auto u = static_cast<vertex_id>(r.below(n));
      const auto v = static_cast<vertex_id>(r.below(n));
      uint64_t state = 0;
      const bool a = view.connected(u, v, &state);
      out.sample.offer(t.reads++, {state, u, v, a});
    }
    const auto t2 = clock_type::now();
    ++t.pins;
    t.pin_s += seconds_between(t0, t1);
    t.answer_s += seconds_between(t1, t2);
    if (!announced) {
      announced = true;
      ready.fetch_add(1, std::memory_order_release);
    }
  }
  out.totals = t;
}

/// Joins the reader threads on every path out of the traffic loop.
class reader_pool {
 public:
  reader_pool() = default;
  reader_pool(const reader_pool&) = delete;
  reader_pool& operator=(const reader_pool&) = delete;
  ~reader_pool() { stop(); }

  void start(const bdc::batch_dynamic_connectivity& g, vertex_id n,
             uint64_t seed, int count) {
    states_.resize(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i)
      threads_.emplace_back(reader_loop, std::cref(g), n,
                            seed + 0x1000 * static_cast<uint64_t>(i + 1),
                            std::cref(stop_), std::ref(ready_),
                            std::ref(states_[static_cast<size_t>(i)]));
    while (ready_.load(std::memory_order_acquire) < count)
      std::this_thread::yield();
  }
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }
  std::vector<reader_state>& states() { return states_; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> ready_{0};
  std::vector<reader_state> states_;
  std::vector<std::thread> threads_;
};

void subtract_stats(bdc::statistics& a, const bdc::statistics& b) {
  a.batches_inserted -= b.batches_inserted;
  a.batches_deleted -= b.batches_deleted;
  a.edges_inserted -= b.edges_inserted;
  a.edges_deleted -= b.edges_deleted;
  a.tree_edges_deleted -= b.tree_edges_deleted;
  a.levels_searched -= b.levels_searched;
  a.search_rounds -= b.search_rounds;
  a.doubling_phases -= b.doubling_phases;
  a.edges_fetched -= b.edges_fetched;
  a.edges_pushed -= b.edges_pushed;
  a.replacements_promoted -= b.replacements_promoted;
  a.snapshots_published -= b.snapshots_published;
  a.publishes_full -= b.publishes_full;
  a.publish_relabeled -= b.publish_relabeled;
  a.publish_micros -= b.publish_micros;
}

}  // namespace

pass_result run_pass(const workload_spec& spec, uint64_t seed,
                     const pass_config& cfg) {
  pass_result out;
  bdc::set_num_workers(cfg.workers);
  traffic gen(spec, seed);
  const std::vector<edge> initial = gen.initial();

  bdc::options opts;
  opts.seed = seed;
  opts.concurrent_reads = spec.readers > 0;
  std::unique_ptr<bdc::batch_dynamic_connectivity> g;
  for (int i = 0; i < cfg.setups; ++i) {
    g.reset();
    const auto t0 = clock_type::now();
    g = std::make_unique<bdc::batch_dynamic_connectivity>(spec.n(), opts);
    g->batch_insert(initial);
    out.setup_s.push_back(seconds_between(t0, clock_type::now()));
  }
  out.rec.edge_counts.push_back(g->num_edges());

  round_ops ops;
  auto update = [&](const std::vector<edge>& es, bool insert, bool timed) {
    const auto t0 = clock_type::now();
    if (insert) g->batch_insert(es);
    else g->batch_delete(es);
    const double s = seconds_between(t0, clock_type::now());
    out.rec.edge_counts.push_back(g->num_edges());
    if (!timed) return;
    if (insert) {
      out.insert_s += s;
      out.inserted += es.size();
    } else {
      out.delete_s += s;
      out.deleted += es.size();
      out.delete_ms.push_back(s * 1e3);
    }
  };
  auto run_round = [&](bool timed) {
    gen.next_round(ops);
    update(ops.first, ops.first_is_insert, timed);
    if (!ops.queries.empty()) {
      const auto t0 = clock_type::now();
      std::vector<bool> answers = g->batch_connected(ops.queries);
      const double s = seconds_between(t0, clock_type::now());
      if (timed) {
        out.query_s += s;
        out.queried += ops.queries.size();
        if (cfg.flip_query_answer && out.timed_rounds == 0)
          answers[0] = !answers[0];
      }
      const uint64_t salt = out.rec.query_prints.size();
      out.rec.query_prints.push_back(answer_fingerprint(answers, salt));
    }
    update(ops.second, !ops.first_is_insert, timed);
    ++out.rec.rounds;
  };

  for (int i = 0; i < spec.warmup_rounds; ++i) run_round(false);

  const bdc::statistics stats_before = g->stats();
  const uint64_t fresh_before = g->pool_stats().fresh;
  reader_pool readers;
  if (spec.readers > 0) readers.start(*g, spec.n(), seed, spec.readers);
  auto& tracer = bdc::obs::trace_recorder::global();
  if (cfg.traced) tracer.enable(kTraceCapacity);

  const auto traffic_start = clock_type::now();
  while (out.timed_rounds < cfg.rounds) {
    run_round(true);
    ++out.timed_rounds;
    if (cfg.traced) out.spans.fold(tracer.drain());
  }
  out.traffic_s = seconds_between(traffic_start, clock_type::now());
  readers.stop();
  if (cfg.traced) {
    out.trace_dropped = tracer.dropped();
    tracer.disable();
  }

  for (reader_state& rs : readers.states()) {
    out.readers.reads += rs.totals.reads;
    out.readers.pins += rs.totals.pins;
    out.readers.pin_s += rs.totals.pin_s;
    out.readers.answer_s += rs.totals.answer_s;
    auto& kept = rs.sample.kept();
    out.rec.reads.insert(out.rec.reads.end(), kept.begin(), kept.end());
  }
  out.stats = g->stats();
  subtract_stats(out.stats, stats_before);
  const auto pool = g->pool_stats();
  out.pool_fresh = pool.fresh - fresh_before;
  out.pool_retained_bytes = pool.retained_bytes();
  out.footprint = g->levels().footprint();
  out.rec.final_labels = g->components();
  if (cfg.traced) {
    const bdc::invariant_report rep = g->check_invariants();
    out.invariants_ok = rep.ok;
    out.invariants_message = rep.message;
  }
  return out;
}

}  // namespace perfbench
