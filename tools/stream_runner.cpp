// stream_runner — operational CLI for the library: generate batched
// update-stream files and replay them against any of the implemented
// structures, reporting throughput and correctness spot-checks. Useful for
// profiling real workloads without writing C++.
//
// Usage:
//   stream_runner gen [--stream=deletion|mixed|window]
//                     <erdos|rmat|grid> <n> <m> <batch> <seed> <out>
//   stream_runner run [--engine=auto|dynamic|dynamic-simple|dynamic-scanall|
//                      hdt|static|incremental]
//                     [--substrate=skiplist|treap|blocked]
//                     [--policy=<substrate>:<threshold>] [--workers=N]
//                     [--serve-queries=T] [--metrics=FILE] [--trace=FILE]
//                     [--assert-gauge-max=NAME:MAX] [--check] <stream-file>
//   stream_runner            (no args: self-demo on a generated stream)
//
// --engine picks the structure (default dynamic). `auto` is the
// workload-adaptive engine_router: union-find during insert-only epochs,
// one-shot bulk-load promotion to the HDT structure at the first
// effective deletion, per-epoch rep memo for query floods; its routing
// statistics (phase switches, promotion cost, cache hit rate) join the
// report. --substrate selects the Euler-tour backend of the dynamic
// structures (and of auto's promoted engine);
// --policy=<substrate>:<threshold> additionally hands every level below
// <threshold> to <substrate> (per-level substrate mixing, e.g.
// --policy=blocked:8 for blocked tours on the bottom eight levels); a
// policy naming the primary substrate is uniform and is reported as such.
// --workers rebuilds the scheduler pool before the replay (equivalent to
// BDC_NUM_WORKERS, but scoped to this run).
// --serve-queries=T enables the epoch-snapshot read service and spawns T
// plain std::threads that hammer snapshot_query() connectivity reads
// CONCURRENTLY with the update batches; every recorded answer is
// differential-checked against the exact oracle of the committed state it
// claims to reflect (see serve_replay below), and any mismatch fails the
// run.
// --check replays a union-find oracle in lockstep and differential-checks
// every phased query answer (for the insert-only incremental engine the
// oracle skips deletion batches — it validates the engine against its own
// restricted model). Any mismatch fails the run.
// After a replay the structure's cumulative counters, the node-pool
// report, and the phase-span timing histograms are rendered through the
// telemetry text exporter (src/obs/) — one formatting path for every
// engine. --metrics=FILE additionally writes the same snapshot as
// JSON-lines (one object per metric, labeled with the run
// configuration; see obs/exporters.hpp for the schema), and
// --trace=FILE writes a Chrome trace-event timeline of the per-batch
// phase spans, viewable in chrome://tracing or ui.perfetto.dev.
//
// Vertex ids in a stream file need not be < the header's n: every
// structure validates its inputs at the public API (out-of-range updates
// are dropped, out-of-range queries answer false).
//
// Stream file format (text): first line "n <N>", then one line per batch:
//   I <u1> <v1> <u2> <v2> ...     insertion batch
//   D <u1> <v1> ...               deletion batch
//   Q <u1> <v1> ...               connectivity-query batch
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/incremental_connectivity.hpp"
#include "baselines/static_connectivity.hpp"
#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "gen/graph_gen.hpp"
#include "gen/update_stream.hpp"
#include "hdt/hdt_connectivity.hpp"
#include "obs/collectors.hpp"
#include "obs/exporters.hpp"
#include "parallel/scheduler.hpp"
#include "spanning/union_find.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

using namespace bdc;

namespace {

enum class engine_kind {
  auto_router,
  dynamic,
  dynamic_simple,
  dynamic_scanall,
  hdt,
  static_recompute,
  incremental,
};

std::optional<engine_kind> engine_from_string(const std::string& s) {
  if (s == "auto") return engine_kind::auto_router;
  if (s == "dynamic") return engine_kind::dynamic;
  if (s == "dynamic-simple") return engine_kind::dynamic_simple;
  if (s == "dynamic-scanall") return engine_kind::dynamic_scanall;
  if (s == "hdt") return engine_kind::hdt;
  if (s == "static") return engine_kind::static_recompute;
  if (s == "incremental") return engine_kind::incremental;
  return std::nullopt;
}

void write_stream(const std::string& path, vertex_id n,
                  const update_stream& stream) {
  std::ofstream out(path);
  out << "n " << n << "\n";
  for (const auto& b : stream) {
    switch (b.op) {
      case update_batch::kind::insert:
        out << "I";
        for (const edge& e : b.edges) out << ' ' << e.u << ' ' << e.v;
        break;
      case update_batch::kind::erase:
        out << "D";
        for (const edge& e : b.edges) out << ' ' << e.u << ' ' << e.v;
        break;
      case update_batch::kind::query:
        out << "Q";
        for (auto& [u, v] : b.queries) out << ' ' << u << ' ' << v;
        break;
    }
    out << "\n";
  }
}

bool read_stream(const std::string& path, vertex_id& n,
                 update_stream& stream) {
  std::ifstream in(path);
  if (!in) return false;
  std::string tag;
  if (!(in >> tag) || tag != "n" || !(in >> n)) return false;
  std::string line;
  std::getline(in, line);  // eat rest of header line
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char op;
    ls >> op;
    update_batch b;
    vertex_id u, v;
    switch (op) {
      case 'I':
      case 'D':
        b.op = op == 'I' ? update_batch::kind::insert
                         : update_batch::kind::erase;
        while (ls >> u >> v) b.edges.push_back({u, v});
        break;
      case 'Q':
        b.op = update_batch::kind::query;
        while (ls >> u >> v) b.queries.push_back({u, v});
        break;
      default:
        return false;
    }
    stream.push_back(std::move(b));
  }
  return true;
}

/// Min-vertex component labels of the canonical edge set (the oracle).
std::vector<vertex_id> oracle_labels(
    vertex_id n, const std::unordered_set<uint64_t>& edges) {
  union_find uf(n);
  for (uint64_t key : edges) {
    edge e = edge_from_key(key);
    uf.unite(e.u, e.v);
  }
  std::vector<vertex_id> mins(n, kNoVertex);
  std::vector<vertex_id> labels(n);
  for (vertex_id v = 0; v < n; ++v) {
    uint32_t r = uf.find(v);
    if (mins[r] == kNoVertex) mins[r] = v;  // ascending v: first is min
  }
  for (vertex_id v = 0; v < n; ++v) labels[v] = mins[uf.find(v)];
  return labels;
}

// Lockstep union-find differential (--check): mirrors the library's edge
// semantics (canonicalize; drop self-loops and out-of-range; set
// semantics) and verifies every phased query answer against min-vertex
// oracle labels, rebuilt lazily once per dirty query batch. Runs outside
// the replay timers, so --check does not skew the throughput report.
struct oracle_checker {
  vertex_id n = 0;
  /// false for the insert-only incremental engine: its model never sees
  /// deletions, so neither does its oracle.
  bool track_deletes = true;
  std::unordered_set<uint64_t> edges;
  std::vector<vertex_id> labels;
  bool dirty = true;
  size_t checked = 0;
  size_t mismatches = 0;

  void on_update(std::span<const edge> es, bool insert) {
    if (!insert && !track_deletes) return;
    for (const edge& raw : es) {
      edge c = raw.canonical();
      if (c.is_self_loop() || c.v >= n) continue;
      if (insert)
        edges.insert(edge_key(c));
      else
        edges.erase(edge_key(c));
    }
    dirty = true;
  }

  void on_query(std::span<const std::pair<vertex_id, vertex_id>> qs,
                const std::vector<bool>& ans) {
    if (dirty) {
      labels = oracle_labels(n, edges);
      dirty = false;
    }
    for (size_t i = 0; i < qs.size(); ++i) {
      auto [u, v] = qs[i];
      bool expect = u < n && v < n && labels[u] == labels[v];
      checked++;
      if (expect != static_cast<bool>(ans[i]) && mismatches++ < 5) {
        std::fprintf(stderr,
                     "check MISMATCH: (%u,%u): got %d, oracle %d\n", u, v,
                     static_cast<int>(ans[i]), static_cast<int>(expect));
      }
    }
  }
};

struct replay_report {
  double insert_sec = 0, delete_sec = 0, query_sec = 0;
  size_t inserted = 0, deleted = 0, queried = 0, connected_answers = 0;
};

template <typename Structure>
replay_report replay(Structure& s, const update_stream& stream,
                     oracle_checker* check = nullptr) {
  replay_report r;
  timer t;
  for (const auto& b : stream) {
    switch (b.op) {
      case update_batch::kind::insert:
        t.reset();
        s.batch_insert(b.edges);
        r.insert_sec += t.elapsed();
        r.inserted += b.edges.size();
        if (check) check->on_update(b.edges, /*insert=*/true);
        break;
      case update_batch::kind::erase:
        t.reset();
        s.batch_delete(b.edges);
        r.delete_sec += t.elapsed();
        r.deleted += b.edges.size();
        if (check) check->on_update(b.edges, /*insert=*/false);
        break;
      case update_batch::kind::query: {
        t.reset();
        auto ans = s.batch_connected(b.queries);
        r.query_sec += t.elapsed();
        r.queried += b.queries.size();
        for (bool a : ans) r.connected_answers += a;
        if (check) check->on_query(b.queries, ans);
        break;
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// Concurrent query serving (--serve-queries=T)
//
// Reader threads hammer snapshot_query() WHILE the driver replays update
// batches, and every recorded answer is differential-checked afterwards:
// the view reports which committed batch count ("state") its answer
// reflects, the driver rebuilds the exact connectivity oracle (union-find
// over the canonical edge set) after every update batch, and an answer is
// correct iff it matches the oracle of its reported state. A torn read —
// any answer matching neither the pre- nor post-batch boundary of some
// batch — cannot pass this check.
// ---------------------------------------------------------------------

struct served_record {
  vertex_id u, v;
  uint64_t state;  // committed batch count the answer claims to reflect
  bool pinned;     // answered by the frozen view (connected_pinned)
  bool ans;
};

struct serve_result {
  replay_report rep;
  uint64_t served = 0;     // total concurrent queries answered
  size_t checked = 0;      // recorded answers differential-checked
  size_t mismatches = 0;
};

serve_result serve_replay(batch_dynamic_connectivity& s, vertex_id n,
                          const update_stream& stream, unsigned readers) {
  serve_result out;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  // Bound the per-thread evidence buffers; the count keeps running.
  constexpr size_t kMaxRecords = size_t{1} << 16;
  std::vector<std::vector<served_record>> recs(readers);
  std::vector<std::thread> pool;
  pool.reserve(readers);
  for (unsigned t = 0; t < readers; ++t) {
    pool.emplace_back([&, t] {
      random_stream rng(hash_combine(0x5e57e, t));
      auto& buf = recs[t];
      buf.reserve(kMaxRecords);
      uint64_t count = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto view = s.snapshot_query();
        served_record r{};
        r.u = static_cast<vertex_id>(rng.next(n));
        r.v = static_cast<vertex_id>(rng.next(n));
        if ((count & 7) == 0) {
          // Every 8th query exercises the frozen-view accessors.
          r.pinned = true;
          r.state = view.version();
          r.ans = view.connected_pinned(r.u, r.v);
        } else {
          r.ans = view.connected(r.u, r.v, &r.state);
        }
        if (buf.size() < kMaxRecords) buf.push_back(r);
        ++count;
      }
      served.fetch_add(count, std::memory_order_relaxed);
    });
  }

  // Driver: replay the stream, mirroring the library's edge semantics
  // (canonicalize; drop self-loops and out-of-range; set semantics) and
  // appending the post-batch oracle after EVERY update batch — the
  // structure commits one serving state per batch_insert/batch_delete
  // call, no-op batches included.
  std::unordered_set<uint64_t> edges;
  std::vector<std::vector<vertex_id>> states;
  states.push_back(oracle_labels(n, edges));  // state 0: empty graph
  auto commit = [&](std::span<const edge> es, bool insert) {
    for (const edge& raw : es) {
      edge c = raw.canonical();
      if (c.is_self_loop() || c.v >= n) continue;
      if (insert)
        edges.insert(edge_key(c));
      else
        edges.erase(edge_key(c));
    }
    states.push_back(oracle_labels(n, edges));
  };
  timer t;
  for (const auto& b : stream) {
    switch (b.op) {
      case update_batch::kind::insert:
        t.reset();
        s.batch_insert(b.edges);
        out.rep.insert_sec += t.elapsed();
        out.rep.inserted += b.edges.size();
        commit(b.edges, /*insert=*/true);
        break;
      case update_batch::kind::erase:
        t.reset();
        s.batch_delete(b.edges);
        out.rep.delete_sec += t.elapsed();
        out.rep.deleted += b.edges.size();
        commit(b.edges, /*insert=*/false);
        break;
      case update_batch::kind::query: {
        t.reset();
        auto ans = s.batch_connected(b.queries);
        out.rep.query_sec += t.elapsed();
        out.rep.queried += b.queries.size();
        for (bool a : ans) out.rep.connected_answers += a;
        break;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  out.served = served.load(std::memory_order_relaxed);

  if (s.committed_version() != states.size() - 1) {
    std::fprintf(stderr,
                 "serve: committed_version %" PRIu64
                 " != driver batch count %zu\n",
                 s.committed_version(), states.size() - 1);
    out.mismatches++;
  }
  for (const auto& buf : recs) {
    for (const served_record& r : buf) {
      out.checked++;
      if (r.state >= states.size()) {
        if (out.mismatches++ < 5)
          std::fprintf(stderr,
                       "serve MISMATCH: state %" PRIu64
                       " out of range (%zu committed)\n",
                       r.state, states.size() - 1);
        continue;
      }
      const auto& labels = states[r.state];
      bool expect = labels[r.u] == labels[r.v];
      if (expect != r.ans) {
        if (out.mismatches++ < 5)
          std::fprintf(stderr,
                       "serve MISMATCH: (%u,%u) at state %" PRIu64
                       " (%s): got %d, oracle %d\n",
                       r.u, r.v, r.state, r.pinned ? "pinned" : "fresh",
                       r.ans, expect);
      }
    }
  }
  return out;
}

/// Adapters give every structure the same batch surface.
struct incremental_adapter {
  incremental_connectivity inner;
  explicit incremental_adapter(vertex_id n) : inner(n) {}
  void batch_insert(std::span<const edge> es) { inner.batch_insert(es); }
  void batch_delete(std::span<const edge>) {
    std::fprintf(stderr,
                 "warning: incremental structure ignores deletions\n");
  }
  std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> qs) {
    return inner.batch_connected(qs);
  }
};

void print_report(const char* name, const replay_report& r) {
  auto rate = [](size_t items, double sec) {
    return sec > 0 ? static_cast<double>(items) / sec / 1e3 : 0.0;
  };
  std::printf("%-16s ins %8zu in %7.3fs (%8.1f K/s) | del %8zu in %7.3fs "
              "(%8.1f K/s) | qry %8zu in %7.3fs (%8.1f K/s) | conn %zu\n",
              name, r.inserted, r.insert_sec, rate(r.inserted, r.insert_sec),
              r.deleted, r.delete_sec, rate(r.deleted, r.delete_sec),
              r.queried, r.query_sec, rate(r.queried, r.query_sec),
              r.connected_answers);
}

// --metrics / --trace destinations (empty = disabled), set in main.
std::string g_metrics_path;
std::string g_trace_path;

// --assert-gauge-max=NAME:MAX budget assertions, checked against every
// reported snapshot (CI smoke tests pin e.g. levels.bytes this way).
std::vector<std::pair<std::string, int64_t>> g_gauge_max;
int g_gauge_asserts_failed = 0;

/// Replay wall times join the snapshot so the span breakdown can be
/// checked against them (tools/check_telemetry.py asserts the batch
/// spans sum to within 10% of these).
void collect_replay(obs::metrics_snapshot& snap, const replay_report& r) {
  auto us = [](double sec) { return static_cast<int64_t>(sec * 1e6); };
  snap.add_gauge("replay.insert_us", us(r.insert_sec));
  snap.add_gauge("replay.delete_us", us(r.delete_sec));
  snap.add_gauge("replay.query_us", us(r.query_sec));
  snap.add_gauge("replay.total_us",
                 us(r.insert_sec + r.delete_sec + r.query_sec));
}

/// The single reporting sink: merges the global registry (span
/// histograms, retention gauges) into the per-structure rows, prints the
/// text report, and appends the run to --metrics as JSON-lines.
void report_metrics(const std::string& label, obs::metrics_snapshot snap) {
  obs::metrics_snapshot reg = obs::metric_registry::global().snapshot();
  snap.rows.insert(snap.rows.end(),
                   std::make_move_iterator(reg.rows.begin()),
                   std::make_move_iterator(reg.rows.end()));
  snap.sort();
  obs::export_text(stdout, snap);
  for (const auto& [gauge_name, limit] : g_gauge_max) {
    const obs::metric_row* row = snap.find(gauge_name);
    if (row == nullptr) {
      std::fprintf(stderr,
                   "--assert-gauge-max: gauge '%s' not reported by %s\n",
                   gauge_name.c_str(), label.c_str());
      ++g_gauge_asserts_failed;
    } else if (row->value > limit) {
      std::fprintf(stderr,
                   "--assert-gauge-max: %s = %" PRId64
                   " exceeds budget %" PRId64 " in %s\n",
                   gauge_name.c_str(), row->value, limit, label.c_str());
      ++g_gauge_asserts_failed;
    }
  }
  if (!g_metrics_path.empty()) {
    std::ofstream out(g_metrics_path, std::ios::app);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics file '%s'\n",
                   g_metrics_path.c_str());
    } else {
      obs::export_jsonl(out, snap, label);
    }
  }
}

/// The historical pool report ended with a high-watermark trim; keep the
/// side effect and report what it released through the snapshot instead
/// of a bespoke printf.
void collect_pool_and_trim(obs::metrics_snapshot& snap,
                           batch_dynamic_connectivity& s) {
  obs::collect(snap, s.pool_stats());
  snap.add_gauge("pool.trim_released_bytes",
                 static_cast<int64_t>(s.trim_pools()));
}

/// Prints the --check verdict; returns 1 on any mismatch.
int finish_check(const oracle_checker* chk) {
  if (chk == nullptr) return 0;
  std::printf("  check: %zu answers differential-checked, %zu mismatches%s\n",
              chk->checked, chk->mismatches,
              chk->mismatches == 0 ? " (OK)" : "");
  if (chk->mismatches != 0) {
    std::fprintf(stderr, "oracle differential check FAILED\n");
    return 1;
  }
  return 0;
}

int run_structure(engine_kind eng, vertex_id n, const update_stream& stream,
                  substrate sub, level_policy policy, unsigned serve_threads,
                  bool check) {
  oracle_checker chk;
  chk.n = n;
  chk.track_deletes = eng != engine_kind::incremental;
  oracle_checker* cp = check ? &chk : nullptr;

  if (eng == engine_kind::dynamic || eng == engine_kind::dynamic_simple ||
      eng == engine_kind::dynamic_scanall) {
    const char* which = eng == engine_kind::dynamic ? "dynamic"
                        : eng == engine_kind::dynamic_simple
                            ? "dynamic-simple"
                            : "dynamic-scanall";
    options o;
    o.search = eng == engine_kind::dynamic ? level_search_kind::interleaved
               : eng == engine_kind::dynamic_simple
                   ? level_search_kind::simple
                   : level_search_kind::scan_all;
    o.substrate = sub;
    o.policy = policy;
    o.concurrent_reads = serve_threads > 0;
    batch_dynamic_connectivity s(n, o);
    // config_label applies the library's policy normalization, so a
    // --policy naming the primary substrate reads as uniform here.
    std::string label = std::string(which) + "/" + config_label(o);
    // Per-run registry baseline: self-demo replays several
    // configurations in one process, and each report should cover only
    // its own replay (construction-time publishes excluded too).
    obs::metric_registry::global().reset();
    obs::metrics_snapshot snap;
    if (serve_threads > 0) {
      auto sr = serve_replay(s, n, stream, serve_threads);
      print_report(label.c_str(), sr.rep);
      std::printf("  serve: %u reader threads answered %" PRIu64
                  " queries during the replay; %zu differential-checked, "
                  "%zu mismatches%s\n",
                  serve_threads, sr.served, sr.checked, sr.mismatches,
                  sr.mismatches == 0 ? " (OK)" : "");
      if (sr.mismatches != 0) {
        std::fprintf(stderr, "concurrent differential check FAILED\n");
        return 1;
      }
      collect_replay(snap, sr.rep);
    } else {
      replay_report rep = replay(s, stream, cp);
      print_report(label.c_str(), rep);
      collect_replay(snap, rep);
    }
    obs::collect(snap, s.stats());
    collect_pool_and_trim(snap, s);
    report_metrics(label, std::move(snap));
    return finish_check(cp);
  }

  if (serve_threads > 0) {
    std::fprintf(stderr,
                 "warning: --serve-queries applies only to the dynamic "
                 "structures; ignoring\n");
  }
  if (eng == engine_kind::auto_router) {
    router_options ro;
    ro.dynamic_opts.substrate = sub;
    ro.dynamic_opts.policy = policy;
    engine_router s(n, ro);
    std::string label = "auto/" + config_label(ro.dynamic_opts);
    obs::metric_registry::global().reset();
    obs::metrics_snapshot snap;
    replay_report rep = replay(s, stream, cp);
    print_report(label.c_str(), rep);
    collect_replay(snap, rep);
    obs::collect(snap, s.stats());
    if (const batch_dynamic_connectivity* d = s.dynamic_engine()) {
      obs::collect(snap, d->stats());
      obs::collect(snap, d->pool_stats());
    }
    report_metrics(label, std::move(snap));
    return finish_check(cp);
  }
  if (eng == engine_kind::hdt) {
    hdt_connectivity s(n);
    obs::metric_registry::global().reset();
    obs::metrics_snapshot snap;
    replay_report rep = replay(s, stream, cp);
    print_report("hdt", rep);
    collect_replay(snap, rep);
    obs::collect(snap, s.stats());
    report_metrics("hdt", std::move(snap));
    return finish_check(cp);
  }
  if (eng == engine_kind::static_recompute) {
    static_recompute_connectivity s(n);
    obs::metric_registry::global().reset();
    obs::metrics_snapshot snap;
    replay_report rep = replay(s, stream, cp);
    print_report("static", rep);
    collect_replay(snap, rep);
    snap.add_counter("static.full_recomputes", s.recomputes());
    report_metrics("static", std::move(snap));
    return finish_check(cp);
  }
  incremental_adapter s(n);
  obs::metric_registry::global().reset();
  obs::metrics_snapshot snap;
  replay_report rep = replay(s, stream, cp);
  print_report("incremental", rep);
  collect_replay(snap, rep);
  report_metrics("incremental", std::move(snap));
  return finish_check(cp);
}

int self_demo(unsigned serve_threads) {
  std::printf("stream_runner self-demo: n=4096, m=16384, deletion stream "
              "with batch 512 + queries%s\n",
              serve_threads > 0 ? " (+ concurrent query serving)" : "");
  const vertex_id n = 4096;
  auto graph = gen_erdos_renyi(n, 4 * n, 1);
  auto stream = make_deletion_stream(graph, n, 1024, 512, 256, 2);
  // The dynamic structure runs once per substrate plus once under the
  // mixed per-level policy (a built-in uniform-vs-mixed A/B pass). With
  // --serve-queries, every dynamic pass additionally serves (and
  // differential-checks) concurrent reads — the skip-list/treap passes
  // exercise the snapshot path, the blocked pass the live seqlock probe.
  for (substrate sub :
       {substrate::skiplist, substrate::treap, substrate::blocked}) {
    if (int rc = run_structure(engine_kind::dynamic, n, stream, sub, {},
                               serve_threads, /*check=*/false);
        rc != 0)
      return rc;
  }
  if (int rc = run_structure(engine_kind::dynamic, n, stream,
                             substrate::skiplist,
                             level_policy{8, substrate::blocked},
                             serve_threads, /*check=*/false);
      rc != 0)
    return rc;
  for (engine_kind eng :
       {engine_kind::dynamic_simple, engine_kind::hdt,
        engine_kind::static_recompute, engine_kind::auto_router}) {
    if (int rc = run_structure(eng, n, stream, substrate::skiplist, {}, 0,
                               /*check=*/false);
        rc != 0)
      return rc;
  }
  return 0;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s gen [--stream=deletion|mixed|window|hub] "
               "<erdos|rmat|grid> <n> <m> <batch> <seed> <out>\n"
               "  %s run [--engine=auto|dynamic|dynamic-simple|"
               "dynamic-scanall|hdt|static|incremental] "
               "[--substrate=skiplist|treap|blocked] "
               "[--policy=<substrate>:<threshold>] "
               "[--workers=N] [--serve-queries=T] "
               "[--metrics=FILE] [--trace=FILE] "
               "[--assert-gauge-max=NAME:MAX] "
               "[--check] <stream-file>\n"
               "  %s                (self-demo; flags apply)\n",
               prog, prog, prog);
  return 2;
}

/// Post-replay trace flush. Called once, after every structure and
/// reader thread has been joined, so the recorder's quiescence
/// requirement holds.
int finish_run(int rc) {
  if (g_gauge_asserts_failed != 0 && rc == 0) rc = 1;
  obs::trace_recorder& tr = obs::trace_recorder::global();
  if (g_trace_path.empty() || !tr.active()) return rc;
  tr.disable();
  std::ofstream out(g_trace_path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace file '%s'\n",
                 g_trace_path.c_str());
    return rc != 0 ? rc : 2;
  }
  const uint64_t dropped = tr.dropped();
  obs::export_chrome_trace(out, tr.drain(), dropped);
  std::fprintf(stderr,
               "wrote chrome trace to %s (load via chrome://tracing or "
               "ui.perfetto.dev)\n",
               g_trace_path.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return self_demo(0);

  // Flags may appear anywhere; everything else is positional.
  engine_kind eng = engine_kind::dynamic;
  substrate sub = substrate::skiplist;
  level_policy policy;
  unsigned serve_threads = 0;
  bool check = false;
  std::string stream_kind = "deletion";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--engine=", 0) == 0) {
      auto parsed = engine_from_string(a.substr(9));
      if (!parsed) {
        std::fprintf(stderr, "unknown engine '%s'\n", a.c_str() + 9);
        return 2;
      }
      eng = *parsed;
    } else if (a.rfind("--substrate=", 0) == 0) {
      auto parsed = substrate_from_string(a.substr(12));
      if (!parsed) {
        std::fprintf(stderr, "unknown substrate '%s'\n", a.c_str() + 12);
        return 2;
      }
      sub = *parsed;
    } else if (a.rfind("--policy=", 0) == 0) {
      std::string spec = a.substr(9);
      size_t colon = spec.find(':');
      auto parsed = substrate_from_string(spec.substr(0, colon));
      int threshold = 0;
      if (colon != std::string::npos) {
        char* end = nullptr;
        errno = 0;
        long t = std::strtol(spec.c_str() + colon + 1, &end, 10);
        if (errno == 0 && end != spec.c_str() + colon + 1 && *end == '\0' &&
            t > 0 && t <= 64)
          threshold = static_cast<int>(t);
      }
      if (!parsed || threshold == 0) {
        std::fprintf(stderr,
                     "bad --policy value '%s' (want <substrate>:<level "
                     "threshold>, e.g. blocked:8)\n",
                     spec.c_str());
        return 2;
      }
      policy = level_policy{threshold, *parsed};
    } else if (a.rfind("--workers=", 0) == 0) {
      const char* value = a.c_str() + 10;
      char* end = nullptr;
      errno = 0;
      unsigned long w = std::strtoul(value, &end, 10);
      if (errno != 0 || end == value || *end != '\0' || w == 0 ||
          w > 4096) {
        std::fprintf(stderr, "bad --workers value '%s' (want 1..4096)\n",
                     value);
        return 2;
      }
      set_num_workers(static_cast<unsigned>(w));
    } else if (a.rfind("--serve-queries=", 0) == 0) {
      const char* value = a.c_str() + 16;
      char* end = nullptr;
      errno = 0;
      unsigned long t = std::strtoul(value, &end, 10);
      if (errno != 0 || end == value || *end != '\0' || t > 256) {
        std::fprintf(stderr,
                     "bad --serve-queries value '%s' (want 0..256)\n",
                     value);
        return 2;
      }
      serve_threads = static_cast<unsigned>(t);
    } else if (a.rfind("--stream=", 0) == 0) {
      stream_kind = a.substr(9);
      if (stream_kind != "deletion" && stream_kind != "mixed" &&
          stream_kind != "window" && stream_kind != "hub") {
        std::fprintf(stderr,
                     "bad --stream value '%s' "
                     "(want deletion|mixed|window|hub)\n",
                     stream_kind.c_str());
        return 2;
      }
    } else if (a.rfind("--assert-gauge-max=", 0) == 0) {
      std::string spec = a.substr(19);
      size_t colon = spec.rfind(':');
      int64_t limit = 0;
      bool ok = colon != std::string::npos && colon > 0;
      if (ok) {
        char* end = nullptr;
        errno = 0;
        limit = std::strtoll(spec.c_str() + colon + 1, &end, 10);
        ok = errno == 0 && end != spec.c_str() + colon + 1 && *end == '\0';
      }
      if (!ok) {
        std::fprintf(stderr,
                     "bad --assert-gauge-max value '%s' "
                     "(want <gauge-name>:<max>, e.g. levels.bytes:1000000)\n",
                     spec.c_str());
        return 2;
      }
      g_gauge_max.push_back({spec.substr(0, colon), limit});
    } else if (a.rfind("--metrics=", 0) == 0) {
      g_metrics_path = a.substr(10);
      if (g_metrics_path.empty()) {
        std::fprintf(stderr, "bad --metrics value (want a file path)\n");
        return 2;
      }
    } else if (a.rfind("--trace=", 0) == 0) {
      g_trace_path = a.substr(8);
      if (g_trace_path.empty()) {
        std::fprintf(stderr, "bad --trace value (want a file path)\n");
        return 2;
      }
    } else if (a == "--check") {
      check = true;
    } else if (a.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      args.push_back(std::move(a));
    }
  }
  // Arm the export sinks before any replay. --metrics appends one block
  // of JSON-lines per replayed configuration, so start from an empty
  // file; the trace covers the whole process and is flushed on exit.
  if (!g_metrics_path.empty()) {
    std::ofstream truncated(g_metrics_path, std::ios::trunc);
    if (!truncated) {
      std::fprintf(stderr, "cannot write metrics file '%s'\n",
                   g_metrics_path.c_str());
      return 2;
    }
  }
  if (!g_trace_path.empty()) obs::trace_recorder::global().enable();

  if (args.empty()) return finish_run(self_demo(serve_threads));

  const std::string& cmd = args[0];
  if (cmd == "gen" && args.size() == 7) {
    std::string kind = args[1];
    vertex_id n = static_cast<vertex_id>(std::stoul(args[2]));
    size_t m = std::stoul(args[3]);
    size_t batch = std::stoul(args[4]);
    uint64_t seed = std::stoull(args[5]);
    std::vector<edge> graph;
    if (kind == "erdos") {
      graph = gen_erdos_renyi(n, m, seed);
    } else if (kind == "rmat") {
      graph = gen_rmat(n, m, seed);
    } else if (kind == "grid") {
      vertex_id side = 1;
      while (static_cast<size_t>(side) * side < n) ++side;
      graph = gen_grid(side, side);
      n = side * side;
    } else {
      std::fprintf(stderr, "unknown kind '%s'\n", kind.c_str());
      return 2;
    }
    update_stream stream;
    if (stream_kind == "mixed") {
      stream = make_phase_skewed_stream(graph, n, batch,
                                        /*flood_batches=*/8,
                                        /*flood_queries=*/4 * batch,
                                        seed + 1);
    } else if (stream_kind == "window") {
      stream = make_sliding_window_stream(graph, std::max<size_t>(1, m / 2),
                                          batch, seed + 1);
    } else if (stream_kind == "hub") {
      stream = make_hub_churn_stream(graph, n, batch, /*rounds=*/3,
                                     seed + 1);
    } else {
      stream =
          make_deletion_stream(graph, n, batch, batch, batch / 4, seed + 1);
    }
    write_stream(args[6], n, stream);
    std::printf("wrote %zu batches over %u vertices to %s\n", stream.size(),
                n, args[6].c_str());
    return 0;
  }
  if (cmd == "run" && args.size() == 2) {
    vertex_id n = 0;
    update_stream stream;
    if (!read_stream(args[1], n, stream)) {
      std::fprintf(stderr, "cannot read stream file '%s'\n", args[1].c_str());
      return 2;
    }
    return finish_run(
        run_structure(eng, n, stream, sub, policy, serve_threads, check));
  }
  return usage(argv[0]);
}
