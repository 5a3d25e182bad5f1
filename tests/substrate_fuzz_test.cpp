// Differential fuzz suite for the Euler-tour substrates.
//
// Long randomized mixed link/cut/count/query streams are driven directly
// against each substrate (through ett_forest) and checked two independent
// ways:
//
//   * OracleLockstep — every round's query batch is verified against a
//     union-find oracle REBUILT from scratch from the current tree-edge
//     set, so an oracle bug cannot track a substrate bug.
//   * CrossSubstrate — the skip-list, treap, and blocked forests (which
//     share no code) replay identical batch streams and must agree on
//     every query, edge count, and component size.
//   * BdcDifferential — batch_dynamic_connectivity end-to-end (inserts
//     and deletes with non-tree edges, replacement searches, level
//     pushes) under every uniform substrate plus the mixed per-level
//     policy, in lockstep with a from-scratch union-find oracle. Every
//     config runs with the read service on, and after every committed
//     batch the incrementally published snapshot is compared against a
//     from-scratch components() walk. The adaptive engine_router rides
//     along as one more lockstep structure (with and without its query
//     memo), so its union-find epoch, one-shot promotion, and per-epoch
//     cache face the same adversarial streams as the fixed engines.
//
// The grid is {substrate} x {workers: 1, 2, hardware} x {batch size}, and
// every stream seed is a deterministic function of those parameters, so a
// failure's SCOPED_TRACE line is a one-line repro: rerun that exact test
// name. The sweep is widened in CI (and locally) through two environment
// knobs:
//
//   BDC_FUZZ_ROUNDS  rounds per stream        (default 25)
//   BDC_FUZZ_SEEDS   streams per parameter set (default 2)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "core/engine_router.hpp"
#include "ett/ett_forest.hpp"
#include "spanning/union_find.hpp"
#include "test_substrates.hpp"
#include "test_workers.hpp"
#include "util/random.hpp"

namespace bdc {
namespace {

using ::bdc::testing::kSubConfigs;
using ::bdc::testing::worker_pool_guard;
using ::bdc::testing::workers_name;

int env_knob(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

int fuzz_rounds() { return env_knob("BDC_FUZZ_ROUNDS", 25); }
int fuzz_seeds() { return env_knob("BDC_FUZZ_SEEDS", 2); }

struct fuzz_params {
  substrate sub;      // OracleLockstep only; CrossSubstrate drives both
  unsigned workers;   // 0 = the default (hardware) pool
  size_t batch;
};

// One mutation/query round state: the present tree edges plus generators.
struct stream_state {
  vertex_id n;
  random_stream rs;
  std::set<std::pair<vertex_id, vertex_id>> present;

  explicit stream_state(vertex_id n_, uint64_t seed) : n(n_), rs(seed) {}

  // A batch of links that is acyclic against the current forest AND within
  // itself, never already present, no self loops — the batch_link
  // preconditions the level structure guarantees in production.
  std::vector<edge> next_links(size_t want) {
    union_find acyclic(n);
    for (const auto& pe : present) acyclic.unite(pe.first, pe.second);
    std::vector<edge> links;
    for (size_t t = 0; t < 20 * want && links.size() < want; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      if (u == v || !acyclic.unite(u, v)) continue;
      links.push_back({u, v});
      present.insert({edge{u, v}.canonical().u, edge{u, v}.canonical().v});
    }
    return links;
  }

  // A batch of distinct present tree edges (partial Fisher–Yates sample).
  std::vector<edge> next_cuts(size_t want) {
    std::vector<std::pair<vertex_id, vertex_id>> pool(present.begin(),
                                                      present.end());
    size_t take = std::min(want, pool.size());
    std::vector<edge> cuts;
    for (size_t i = 0; i < take; ++i) {
      size_t j = i + static_cast<size_t>(rs.next(pool.size() - i));
      std::swap(pool[i], pool[j]);
      cuts.push_back({pool[i].first, pool[i].second});
      present.erase(pool[i]);
    }
    return cuts;
  }

  std::vector<std::pair<vertex_id, vertex_id>> next_queries(size_t count) {
    std::vector<std::pair<vertex_id, vertex_id>> qs(count);
    for (auto& q : qs)
      q = {static_cast<vertex_id>(rs.next(n)),
           static_cast<vertex_id>(rs.next(n))};
    return qs;
  }
};

vertex_id n_for_batch(size_t batch) {
  size_t n = 8 * batch;
  return static_cast<vertex_id>(std::min<size_t>(std::max<size_t>(n, 128),
                                                 4096));
}

// ---------------------------------------------------------------------
// Union-find rebuild oracle.
// ---------------------------------------------------------------------

class OracleLockstep : public ::testing::TestWithParam<fuzz_params> {};

TEST_P(OracleLockstep, MixedStream) {
  const fuzz_params p = GetParam();
  worker_pool_guard pool(p.workers);
  const vertex_id n = n_for_batch(p.batch);
  const int rounds = fuzz_rounds();
  for (int s = 0; s < fuzz_seeds(); ++s) {
    uint64_t seed = hash_combine(
        hash_combine(static_cast<uint64_t>(p.sub) + 1, p.workers * 131 + 7),
        p.batch * 1009 + static_cast<uint64_t>(s));
    SCOPED_TRACE("repro: substrate=" + std::string(to_string(p.sub)) +
                 " workers=" + workers_name(p.workers) +
                 " batch=" + std::to_string(p.batch) +
                 " seed_index=" + std::to_string(s) + " stream_seed=" +
                 std::to_string(seed) +
                 " (widen with BDC_FUZZ_SEEDS / BDC_FUZZ_ROUNDS)");
    ett_forest f(p.sub, n, seed ^ 0x5eed);
    stream_state st(n, seed);
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      // Mutate: a link batch, then (on alternating rounds, so the forest
      // grows as well as churns) a cut batch.
      auto links = st.next_links(1 + st.rs.next(p.batch));
      f.batch_link(links);
      ASSERT_EQ(f.check_consistency(), "") << "after batch_link";
      if (round % 2 == 1) {
        auto cuts = st.next_cuts(1 + st.rs.next(p.batch));
        f.batch_cut(cuts);
        ASSERT_EQ(f.check_consistency(), "") << "after batch_cut";
      }
      ASSERT_EQ(f.num_edges(), st.present.size());

      // Counter churn: push per-vertex non-tree counts up, verify the
      // component sums and the fetch contract, then restore to zero.
      std::vector<ett_substrate::count_delta> up;
      for (vertex_id v = 0; v < n; v += 1 + n / 64) up.push_back({v, 0, 3});
      f.batch_add_counts(up);
      ASSERT_EQ(f.check_consistency(), "") << "after batch_add_counts";

      // Oracle rebuilt from scratch: query agreement + component sizes.
      union_find oracle(n);
      for (const auto& pe : st.present) oracle.unite(pe.first, pe.second);
      auto qs = st.next_queries(2 * p.batch + 16);
      auto got = f.batch_connected(qs);
      for (size_t q = 0; q < qs.size(); ++q) {
        ASSERT_EQ(got[q], oracle.connected(qs[q].first, qs[q].second))
            << "query " << qs[q].first << "," << qs[q].second;
      }
      std::vector<uint32_t> comp_size(n, 0);
      for (vertex_id v = 0; v < n; ++v) ++comp_size[oracle.find(v)];
      for (int probe = 0; probe < 8; ++probe) {
        vertex_id v = static_cast<vertex_id>(st.rs.next(n));
        auto cc = f.component_counts(v);
        ASSERT_EQ(cc.vertices, comp_size[oracle.find(v)]) << "vertex " << v;
        // Every sampled vertex in this component contributes 3 non-tree
        // slots; fetch must surface exactly min(want, total).
        auto fetched = f.fetch_nontree(v, cc.nontree_edges + 10);
        uint64_t sum = 0;
        for (const auto& [x, take] : fetched) {
          ASSERT_TRUE(oracle.connected(v, x));
          sum += take;
        }
        ASSERT_EQ(sum, cc.nontree_edges);
      }
      for (auto& d : up) d.nontree_delta = -d.nontree_delta;
      f.batch_add_counts(up);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleLockstep,
    ::testing::Values(
        fuzz_params{substrate::skiplist, 1, 4},
        fuzz_params{substrate::skiplist, 1, 64},
        fuzz_params{substrate::skiplist, 2, 32},
        fuzz_params{substrate::skiplist, 2, 256},
        fuzz_params{substrate::skiplist, 0, 64},
        fuzz_params{substrate::skiplist, 0, 256},
        fuzz_params{substrate::treap, 1, 4},
        fuzz_params{substrate::treap, 1, 64},
        fuzz_params{substrate::treap, 2, 32},
        fuzz_params{substrate::treap, 2, 256},
        fuzz_params{substrate::treap, 0, 64},
        fuzz_params{substrate::treap, 0, 256},
        fuzz_params{substrate::blocked, 1, 4},
        fuzz_params{substrate::blocked, 1, 64},
        fuzz_params{substrate::blocked, 2, 32},
        fuzz_params{substrate::blocked, 2, 256},
        fuzz_params{substrate::blocked, 0, 64},
        fuzz_params{substrate::blocked, 0, 256}),
    [](const ::testing::TestParamInfo<fuzz_params>& info) {
      return std::string(to_string(info.param.sub)) + "_w" +
             workers_name(info.param.workers) + "_b" +
             std::to_string(info.param.batch);
    });

// ---------------------------------------------------------------------
// Cross-substrate differential: skiplist vs treap vs blocked on
// identical streams. The three forests share no code, so any divergence
// pins a bug on one of them.
// ---------------------------------------------------------------------

class CrossSubstrate
    : public ::testing::TestWithParam<std::pair<unsigned, size_t>> {};

TEST_P(CrossSubstrate, IdenticalStreams) {
  const auto [workers, batch] = GetParam();
  worker_pool_guard pool(workers);
  const vertex_id n = n_for_batch(batch);
  const int rounds = fuzz_rounds();
  constexpr substrate kSubs[] = {substrate::skiplist, substrate::treap,
                                 substrate::blocked};
  for (int s = 0; s < fuzz_seeds(); ++s) {
    uint64_t seed = hash_combine(workers * 977 + 3, batch * 31 + 11) +
                    static_cast<uint64_t>(s);
    SCOPED_TRACE("repro: cross workers=" + workers_name(workers) +
                 " batch=" + std::to_string(batch) + " seed_index=" +
                 std::to_string(s) + " stream_seed=" + std::to_string(seed));
    std::vector<ett_forest> fs;
    for (size_t i = 0; i < std::size(kSubs); ++i)
      fs.emplace_back(kSubs[i], n, seed ^ (0xa + i));
    stream_state st(n, seed);
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto links = st.next_links(1 + st.rs.next(batch));
      for (auto& f : fs) f.batch_link(links);
      if (round % 2 == 1) {
        auto cuts = st.next_cuts(1 + st.rs.next(batch));
        for (auto& f : fs) f.batch_cut(cuts);
      }
      for (auto& f : fs) ASSERT_EQ(f.num_edges(), fs[0].num_edges());
      auto qs = st.next_queries(2 * batch + 16);
      auto got_a = fs[0].batch_connected(qs);
      for (size_t fi = 1; fi < fs.size(); ++fi) {
        SCOPED_TRACE(std::string("vs ") + to_string(kSubs[fi]));
        auto got_b = fs[fi].batch_connected(qs);
        for (size_t q = 0; q < qs.size(); ++q) {
          ASSERT_EQ(got_a[q], got_b[q])
              << "query " << qs[q].first << "," << qs[q].second;
        }
        for (int probe = 0; probe < 8; ++probe) {
          vertex_id v = static_cast<vertex_id>(st.rs.next(n));
          ASSERT_EQ(fs[0].component_counts(v).vertices,
                    fs[fi].component_counts(v).vertices)
              << "vertex " << v;
        }
      }
      if (round % 5 == 4) {
        for (size_t fi = 0; fi < fs.size(); ++fi)
          ASSERT_EQ(fs[fi].check_consistency(), "")
              << to_string(kSubs[fi]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossSubstrate,
    ::testing::Values(std::pair<unsigned, size_t>{1, 32},
                      std::pair<unsigned, size_t>{1, 256},
                      std::pair<unsigned, size_t>{2, 64},
                      std::pair<unsigned, size_t>{2, 256},
                      std::pair<unsigned, size_t>{0, 32},
                      std::pair<unsigned, size_t>{0, 64},
                      std::pair<unsigned, size_t>{0, 256}),
    [](const ::testing::TestParamInfo<std::pair<unsigned, size_t>>& info) {
      return "w" + workers_name(info.param.first) + "_b" +
             std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------
// End-to-end differential: batch_dynamic_connectivity under every
// uniform substrate plus the mixed per-level policies, on one identical
// insert/delete/query stream WITH non-tree edges — so replacement
// searches, level pushes, and promotions all hit every backend. The
// oracle is a union-find rebuilt from scratch each round.
//
// The stream is materialized up front (its generation never depends on
// structure responses), so when a run trips, the failing batch list is
// DELTA-DEBUGGED to a minimal repro — first bisecting away whole
// batches, then ops within the surviving batches — and printed in the
// stream-file format stream_runner replays (the repro recipe format the
// README documents).
// ---------------------------------------------------------------------

struct bdc_batch {
  enum class kind : uint8_t { insert, erase, query };
  kind op;
  std::vector<edge> edges;                                // insert/erase
  std::vector<std::pair<vertex_id, vertex_id>> queries;   // query
};
using bdc_stream = std::vector<bdc_batch>;

bdc_stream make_bdc_stream(vertex_id n, uint64_t seed, size_t batch,
                           int rounds) {
  random_stream rs(seed);
  std::set<std::pair<vertex_id, vertex_id>> present;
  bdc_stream stream;
  for (int round = 0; round < rounds; ++round) {
    // Insertion batch: arbitrary edges (non-tree edges arise freely),
    // plus deliberate garbage (duplicates, self loops).
    bdc_batch ins{bdc_batch::kind::insert, {}, {}};
    size_t ni = 1 + static_cast<size_t>(rs.next(batch));
    for (size_t t = 0; t < ni; ++t) {
      vertex_id u = static_cast<vertex_id>(rs.next(n));
      vertex_id v = static_cast<vertex_id>(rs.next(n));
      ins.edges.push_back({u, v});
      if (rs.next(8) == 0) ins.edges.push_back({v, u});
    }
    for (auto e : ins.edges)
      if (!e.is_self_loop())
        present.insert({e.canonical().u, e.canonical().v});
    stream.push_back(std::move(ins));

    // Deletion batch: a random subset of present edges (tree and
    // non-tree alike) plus a mostly-absent probe.
    if (round % 2 == 1) {
      bdc_batch del{bdc_batch::kind::erase, {}, {}};
      for (auto& pe : present)
        if (rs.next(100) < 35) del.edges.push_back({pe.first, pe.second});
      del.edges.push_back({static_cast<vertex_id>(rs.next(n)),
                           static_cast<vertex_id>(rs.next(n))});
      for (auto& e : del.edges)
        present.erase({e.canonical().u, e.canonical().v});
      stream.push_back(std::move(del));
    }

    bdc_batch qry{bdc_batch::kind::query, {}, {}};
    qry.queries.resize(2 * batch + 16);
    for (auto& q : qry.queries)
      q = {static_cast<vertex_id>(rs.next(n)),
           static_cast<vertex_id>(rs.next(n))};
    stream.push_back(std::move(qry));
  }
  return stream;
}

/// Replays `stream` under every kSubConfigs configuration in lockstep
/// with a from-scratch union-find oracle. Returns "" when clean, else a
/// description of the first divergence. `thorough` validates invariants
/// after every batch (used while minimizing, so the repro shrinks to the
/// earliest corrupting batch rather than the query that noticed it);
/// the wide sweep checks every 5th round like before.
std::string replay_bdc(vertex_id n, uint64_t seed, const bdc_stream& stream,
                       bool thorough) {
  std::vector<std::unique_ptr<batch_dynamic_connectivity>> dcs;
  for (size_t ci = 0; ci < std::size(kSubConfigs); ++ci) {
    options o;
    o.seed = seed ^ (0x100 + ci);
    o = kSubConfigs[ci].apply(o);
    // Every config also runs the read service, so each committed batch
    // exercises the incremental snapshot publisher.
    o.concurrent_reads = true;
    dcs.push_back(std::make_unique<batch_dynamic_connectivity>(n, o));
  }
  // The adaptive router replays the same stream, once per memo setting.
  // Its promoted engine uses the first kSubConfigs entry's options so a
  // divergence still pins a config.
  std::vector<std::unique_ptr<engine_router>> routers;
  for (bool cache : {true, false}) {
    router_options ro;
    ro.dynamic_opts.seed = seed ^ (cache ? 0x200 : 0x201);
    ro.dynamic_opts = kSubConfigs[0].apply(ro.dynamic_opts);
    ro.cache_queries = cache;
    routers.push_back(std::make_unique<engine_router>(n, ro));
  }
  auto router_name = [](size_t ri) {
    return std::string(ri == 0 ? "router(cache)" : "router(nocache)");
  };
  std::set<std::pair<vertex_id, vertex_id>> present;
  auto check_all = [&](size_t bi) -> std::string {
    for (size_t ci = 0; ci < dcs.size(); ++ci) {
      if (dcs[ci]->num_edges() != present.size())
        return std::string(kSubConfigs[ci].name) + ": edge count " +
               std::to_string(dcs[ci]->num_edges()) + " != oracle " +
               std::to_string(present.size()) + " after batch " +
               std::to_string(bi);
      auto rep = dcs[ci]->check_invariants();
      if (!rep.ok)
        return std::string(kSubConfigs[ci].name) + ": " + rep.message +
               " after batch " + std::to_string(bi);
    }
    for (size_t ri = 0; ri < routers.size(); ++ri) {
      if (routers[ri]->num_edges() != present.size())
        return router_name(ri) + ": edge count " +
               std::to_string(routers[ri]->num_edges()) + " != oracle " +
               std::to_string(present.size()) + " after batch " +
               std::to_string(bi);
      const auto& rs = routers[ri]->stats();
      if (rs.promotions > 1)
        return router_name(ri) + ": promoted " +
               std::to_string(rs.promotions) + " times (must be one-shot)";
    }
    return "";
  };
  // The incremental publisher's differential: after EVERY committed
  // batch, the published snapshot's labels must equal a from-scratch
  // components() walk. A divergence here means the touched-seed
  // collection missed a component whose membership changed.
  auto check_snapshots = [&](size_t bi) -> std::string {
    for (size_t ci = 0; ci < dcs.size(); ++ci) {
      auto view = dcs[ci]->snapshot_query();
      if (view.components() != dcs[ci]->components())
        return std::string(kSubConfigs[ci].name) +
               ": published snapshot labels diverge from a from-scratch "
               "components() walk after batch " +
               std::to_string(bi);
    }
    return "";
  };
  for (size_t bi = 0; bi < stream.size(); ++bi) {
    const bdc_batch& b = stream[bi];
    switch (b.op) {
      case bdc_batch::kind::insert:
        for (auto& dc : dcs) dc->batch_insert(b.edges);
        for (auto& r : routers) r->batch_insert(b.edges);
        for (auto e : b.edges)
          if (!e.is_self_loop() && e.u < n && e.v < n)
            present.insert({e.canonical().u, e.canonical().v});
        if (auto err = check_snapshots(bi); !err.empty()) return err;
        break;
      case bdc_batch::kind::erase:
        for (auto& dc : dcs) dc->batch_delete(b.edges);
        for (auto& r : routers) r->batch_delete(b.edges);
        for (auto& e : b.edges)
          present.erase({e.canonical().u, e.canonical().v});
        if (auto err = check_snapshots(bi); !err.empty()) return err;
        break;
      case bdc_batch::kind::query: {
        union_find oracle(n);
        for (auto& pe : present) oracle.unite(pe.first, pe.second);
        auto check_queries =
            [&](const std::vector<bool>& got,
                const std::string& who) -> std::string {
          for (size_t q = 0; q < b.queries.size(); ++q) {
            bool want =
                oracle.connected(b.queries[q].first, b.queries[q].second);
            if (got[q] != want)
              return who + ": query (" +
                     std::to_string(b.queries[q].first) + "," +
                     std::to_string(b.queries[q].second) + ") -> " +
                     (got[q] ? "true" : "false") + ", oracle says " +
                     (want ? "true" : "false") + " at batch " +
                     std::to_string(bi);
          }
          return "";
        };
        for (size_t ci = 0; ci < dcs.size(); ++ci) {
          auto err = check_queries(dcs[ci]->batch_connected(b.queries),
                                   kSubConfigs[ci].name);
          if (!err.empty()) return err;
        }
        for (size_t ri = 0; ri < routers.size(); ++ri) {
          auto err = check_queries(routers[ri]->batch_connected(b.queries),
                                   router_name(ri));
          if (!err.empty()) return err;
        }
        break;
      }
    }
    if (thorough || (bi % 10 == 9) || bi == stream.size() - 1) {
      if (auto err = check_all(bi); !err.empty()) return err;
    }
  }
  return "";
}

// ---------------------------------------------------------------------
// Delta debugging (ddmin-style): repeatedly try dropping chunks of the
// item list, halving the chunk size, until no single item can go.
// `fails(candidate)` must be deterministic.
// ---------------------------------------------------------------------

template <typename T, typename Fails>
std::vector<T> ddmin(std::vector<T> items, const Fails& fails) {
  size_t chunk = std::max<size_t>(1, items.size() / 2);
  while (true) {
    bool removed = false;
    for (size_t start = 0; start < items.size() && items.size() > 1;) {
      size_t end = std::min(items.size(), start + chunk);
      std::vector<T> cand;
      cand.reserve(items.size() - (end - start));
      cand.insert(cand.end(), items.begin(),
                  items.begin() + static_cast<ptrdiff_t>(start));
      cand.insert(cand.end(), items.begin() + static_cast<ptrdiff_t>(end),
                  items.end());
      if (!cand.empty() && fails(cand)) {
        items = std::move(cand);
        removed = true;  // the next chunk slid into `start`
      } else {
        start = end;
      }
    }
    if (chunk > 1) {
      chunk /= 2;
    } else if (!removed) {
      break;  // fixpoint at single-item granularity
    }
  }
  return items;
}

/// Shrinks a failing stream: bisect the batch list first, then the ops
/// inside each surviving batch.
bdc_stream minimize_bdc_stream(
    bdc_stream stream,
    const std::function<bool(const bdc_stream&)>& fails) {
  stream = ddmin(std::move(stream), fails);
  for (size_t bi = 0; bi < stream.size(); ++bi) {
    if (stream[bi].op == bdc_batch::kind::query) {
      stream[bi].queries = ddmin(
          stream[bi].queries,
          [&](const std::vector<std::pair<vertex_id, vertex_id>>& qs) {
            bdc_stream cand = stream;
            cand[bi].queries = qs;
            return fails(cand);
          });
    } else {
      stream[bi].edges =
          ddmin(stream[bi].edges, [&](const std::vector<edge>& es) {
            bdc_stream cand = stream;
            cand[bi].edges = es;
            return fails(cand);
          });
    }
  }
  // One more batch-level pass: op-level shrinking often makes whole
  // batches droppable.
  return ddmin(std::move(stream), fails);
}

/// Prints a minimized stream in the stream_runner file format, ready to
/// save and replay: `stream_runner run --engine=dynamic repro.stream`.
void print_bdc_repro(vertex_id n, const bdc_stream& stream) {
  std::printf(
      "=== minimized repro (save as repro.stream; replay with\n"
      "    stream_runner run --engine=dynamic repro.stream) ===\n");
  std::printf("n %u\n", n);
  for (const bdc_batch& b : stream) {
    switch (b.op) {
      case bdc_batch::kind::insert:
      case bdc_batch::kind::erase:
        std::printf("%c", b.op == bdc_batch::kind::insert ? 'I' : 'D');
        for (const edge& e : b.edges) std::printf(" %u %u", e.u, e.v);
        break;
      case bdc_batch::kind::query:
        std::printf("Q");
        for (auto& [u, v] : b.queries) std::printf(" %u %u", u, v);
        break;
    }
    std::printf("\n");
  }
  std::printf("=== end minimized repro ===\n");
}

// ---------------------------------------------------------------------
// The minimizer machinery itself is unit-tested with synthetic failure
// predicates (a real structure divergence would need a planted bug).
// ---------------------------------------------------------------------

TEST(DeltaDebug, DdminShrinksToCore) {
  // "Fails" iff the list still holds both 3 and 7: the 1-minimal result
  // is exactly {3, 7}, order preserved.
  std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto fails = [](const std::vector<int>& v) {
    bool a = false, b = false;
    for (int x : v) {
      a |= (x == 3);
      b |= (x == 7);
    }
    return a && b;
  };
  EXPECT_EQ(ddmin(items, fails), (std::vector<int>{3, 7}));
  // A single-item core shrinks to one element.
  auto has5 = [](const std::vector<int>& v) {
    for (int x : v)
      if (x == 5) return true;
    return false;
  };
  EXPECT_EQ(ddmin(items, has5), (std::vector<int>{5}));
}

TEST(DeltaDebug, MinimizerShrinksStreamsBatchAndOpLevel) {
  // Synthetic trigger: the stream fails iff some insert batch still
  // carries edge (1,2) AND some query batch still carries query (1,2).
  // Minimal: two batches of one op each, order preserved.
  bdc_stream stream = make_bdc_stream(64, 0x5eed, 8, 6);
  stream[1].op = bdc_batch::kind::insert;
  stream[1].queries.clear();
  stream[1].edges = {{9, 10}, {1, 2}, {11, 12}};
  bool planted_query = false;
  for (auto& b : stream) {
    if (b.op == bdc_batch::kind::query && !planted_query) {
      b.queries.push_back({1, 2});
      planted_query = true;
    }
  }
  ASSERT_TRUE(planted_query);
  auto fails = [](const bdc_stream& s) {
    bool ins = false, qry = false;
    for (const bdc_batch& b : s) {
      if (b.op == bdc_batch::kind::insert) {
        for (const edge& e : b.edges) ins |= (e == edge{1, 2});
      } else if (b.op == bdc_batch::kind::query) {
        for (auto& q : b.queries)
          qry |= (q == std::pair<vertex_id, vertex_id>{1, 2});
      }
    }
    return ins && qry;
  };
  ASSERT_TRUE(fails(stream));
  bdc_stream minimal = minimize_bdc_stream(stream, fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].op, bdc_batch::kind::insert);
  EXPECT_EQ(minimal[0].edges, (std::vector<edge>{{1, 2}}));
  EXPECT_EQ(minimal[1].op, bdc_batch::kind::query);
  ASSERT_EQ(minimal[1].queries.size(), 1u);
  EXPECT_EQ(minimal[1].queries[0],
            (std::pair<vertex_id, vertex_id>{1, 2}));
}

class BdcDifferential
    : public ::testing::TestWithParam<std::pair<unsigned, size_t>> {};

TEST_P(BdcDifferential, EndToEndMixedStream) {
  const auto [workers, batch] = GetParam();
  worker_pool_guard pool(workers);
  const vertex_id n = n_for_batch(batch) / 2;
  const int rounds = fuzz_rounds();
  for (int s = 0; s < fuzz_seeds(); ++s) {
    uint64_t seed = hash_combine(workers * 613 + 5, batch * 89 + 17) +
                    static_cast<uint64_t>(s);
    SCOPED_TRACE("repro: bdc workers=" + workers_name(workers) +
                 " batch=" + std::to_string(batch) + " seed_index=" +
                 std::to_string(s) + " stream_seed=" + std::to_string(seed) +
                 " (widen with BDC_FUZZ_SEEDS / BDC_FUZZ_ROUNDS)");
    bdc_stream stream = make_bdc_stream(n, seed, batch, rounds);
    std::string err = replay_bdc(n, seed, stream, /*thorough=*/false);
    if (err.empty()) continue;
    // Trip: shrink the batch list to a minimal repro before failing, so
    // the nightly log carries a ready-to-replay stream file instead of
    // only a seed.
    auto fails = [&](const bdc_stream& cand) {
      return !replay_bdc(n, seed, cand, /*thorough=*/true).empty();
    };
    bdc_stream minimal = minimize_bdc_stream(stream, fails);
    print_bdc_repro(n, minimal);
    std::string minimal_err = replay_bdc(n, seed, minimal, true);
    FAIL() << err << "\nminimized to " << minimal.size()
           << " batches (printed above), failing with: " << minimal_err;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BdcDifferential,
    ::testing::Values(std::pair<unsigned, size_t>{1, 16},
                      std::pair<unsigned, size_t>{1, 96},
                      std::pair<unsigned, size_t>{2, 48},
                      std::pair<unsigned, size_t>{2, 192},
                      std::pair<unsigned, size_t>{0, 16},
                      std::pair<unsigned, size_t>{0, 48},
                      std::pair<unsigned, size_t>{0, 96}),
    [](const ::testing::TestParamInfo<std::pair<unsigned, size_t>>& info) {
      return "w" + workers_name(info.param.first) + "_b" +
             std::to_string(info.param.second);
    });

}  // namespace
}  // namespace bdc
