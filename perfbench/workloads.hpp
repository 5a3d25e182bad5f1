// Workload generation for the connectivity benchmark.
//
// Everything here is the benchmark's own: the RNG, the RMAT and
// Erdős–Rényi generators and the sliding-window sequence. Nothing comes
// from src/gen or util/random, so a change to the library cannot change
// what a workload feeds it. A `traffic` object is a deterministic
// function of (spec, seed): two objects built from the same pair emit
// the same initial graph and the same rounds, which is how the checker
// replays a run after the fact and how the traced run repeats the exact
// rounds of its untraced pass.
//
// The starting graph (and the vertex-id scramble) comes from a fixed
// seed; --seed drives the traffic: which edges are deleted, the queries,
// and the edges a window admits. On RMAT the draw of the starting graph
// alone moved delete_eps by about 12% between seeds, which would have
// buried a real change in seed-to-seed spread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

using bdc::edge;
using bdc::vertex_id;
using query = std::pair<vertex_id, vertex_id>;

/// The splitmix64 finalizer.
inline uint64_t mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: small, fast and fully specified, so the inputs depend on
/// nothing but the seed.
class rng {
 public:
  explicit rng(uint64_t seed) : s_(seed) {}
  uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

inline uint64_t key_of(edge e) { return bdc::edge_key(e.canonical()); }

/// How one round of traffic is made up.
enum class round_kind {
  churn,   // delete Δ random live edges, query, re-insert Δ old deletions
  window,  // insert the Δ newest edges of the sequence, delete the Δ oldest
};

enum class graph_kind { rmat, erdos_renyi };

struct workload_spec {
  std::string name;
  graph_kind graph = graph_kind::rmat;
  round_kind kind = round_kind::churn;
  int log_n = 15;
  size_t live_edges = 0;     // edges present after set-up, kept constant
  size_t reserve_edges = 0;  // churn: held-back edges that seed re-insertion
  size_t delta = 0;          // edges per update batch
  size_t query_batch = 0;    // pairs per batch_connected call (churn)
  // Snapshot reader threads (window). One, not two: with two update
  // workers and two readers all four vCPUs of the reference machine were
  // busy, and run-to-run spreads of window-serve's metrics were 1.4-2.2x
  // those with one reader measured in the same minutes.
  int readers = 0;
  int warmup_rounds = 0;     // untimed rounds before measuring
  // Timed rounds per second of --seconds. A run does a fixed amount of
  // work, seconds * rounds_per_second rounds, so two runs (and two
  // commits) always measure the same rounds: the cost of a round grows as
  // the level hierarchy ages, and a time-bounded run would let a faster
  // program reach older, costlier states. The rates are set so that a run
  // of the reference build takes about --seconds on a 4-vCPU machine.
  double rounds_per_second = 1;
  [[nodiscard]] vertex_id n() const { return vertex_id{1} << log_n; }
};

/// The three measured workloads at full size, or at a tiny size for the
/// self-test (same make-up, a few hundred vertices).
inline std::vector<workload_spec> workload_specs(bool tiny) {
  workload_spec rmat_delete{"rmat-delete", graph_kind::rmat,
                            round_kind::churn, 15, size_t{4} << 15,
                            4 * 512, 512, 8192, 0, 3, 28};
  workload_spec er_query{"er-query", graph_kind::erdos_renyi,
                         round_kind::churn, 14, 3 * (size_t{1} << 14) / 2,
                         4 * 16, 16, size_t{1} << 16, 0, 3, 17};
  workload_spec window_serve{"window-serve", graph_kind::rmat,
                             round_kind::window, 14, size_t{2} << 14, 0,
                             256, 0, 1, 3, 22};
  if (tiny) {
    rmat_delete.log_n = 8;
    rmat_delete.live_edges = 4 << 8;
    rmat_delete.reserve_edges = 4 * 16;
    rmat_delete.delta = 16;
    rmat_delete.query_batch = 64;
    er_query.log_n = 8;
    er_query.live_edges = 3 * (1 << 8) / 2;
    er_query.reserve_edges = 4 * 4;
    er_query.delta = 4;
    er_query.query_batch = 256;
    window_serve.log_n = 8;
    window_serve.live_edges = 2 << 8;
    window_serve.delta = 16;
  }
  return {rmat_delete, er_query, window_serve};
}

/// One round's operations, in the order they are issued: `first` and
/// `second` are update batches (churn: delete then insert; window: insert
/// then delete), and `queries` runs between them (churn only).
struct round_ops {
  std::vector<edge> first;
  std::vector<query> queries;
  std::vector<edge> second;
  bool first_is_insert = false;
};

/// Deterministic traffic source. It tracks live edges only to choose
/// what to delete next; the checker keeps its own model (oracle.hpp).
class traffic {
 public:
  traffic(const workload_spec& spec, uint64_t seed)
      : spec_(spec), rng_(seed ^ 0x5bd1e995a1b2c3d4ULL) {
    rng perm_rng(kGraphSeed * 0x2545f4914f6cdd1dULL + 1);
    perm_.resize(spec_.n());
    for (vertex_id v = 0; v < spec_.n(); ++v) perm_[v] = v;
    for (size_t i = perm_.size(); i > 1; --i)
      std::swap(perm_[i - 1], perm_[perm_rng.below(i)]);
  }

  /// The set-up graph; call once, before the first round.
  std::vector<edge> initial() {
    rng graph(kGraphSeed);
    std::vector<edge> out;
    out.reserve(spec_.live_edges);
    while (live_list_.size() < spec_.live_edges) {
      edge e = fresh_edge(graph);
      add_live(e);
      out.push_back(e);
      if (spec_.kind == round_kind::window) window_.push_back(e);
    }
    while (reserve_.size() < spec_.reserve_edges) {
      edge e = fresh_edge(graph);
      reserve_.push_back(e);
      reserved_.insert(key_of(e));
    }
    return out;
  }

  /// Fills `r` with the next round.
  void next_round(round_ops& r) {
    r.first.clear();
    r.second.clear();
    r.queries.clear();
    if (spec_.kind == round_kind::window) {
      r.first_is_insert = true;
      for (size_t i = 0; i < spec_.delta; ++i) {
        edge e = fresh_edge(rng_);
        add_live(e);
        window_.push_back(e);
        r.first.push_back(e);
      }
      for (size_t i = 0; i < spec_.delta; ++i) {
        edge e = window_.front();
        window_.pop_front();
        remove_live(e);
        r.second.push_back(e);
      }
      return;
    }
    r.first_is_insert = false;
    for (size_t i = 0; i < spec_.delta; ++i) {
      edge e = live_list_[rng_.below(live_list_.size())];
      remove_live(e);
      r.first.push_back(e);
      reserve_.push_back(e);
    }
    for (size_t i = 0; i < spec_.query_batch; ++i)
      r.queries.emplace_back(static_cast<vertex_id>(rng_.below(spec_.n())),
                             static_cast<vertex_id>(rng_.below(spec_.n())));
    for (size_t i = 0; i < spec_.delta; ++i) {
      edge e = reserve_.front();
      reserve_.pop_front();
      add_live(e);
      r.second.push_back(e);
    }
  }

 private:
  /// A new edge that is neither live nor held in reserve.
  edge fresh_edge(rng& r) {
    for (;;) {
      vertex_id u, v;
      if (spec_.graph == graph_kind::rmat) {
        std::tie(u, v) = rmat_pair(r);
      } else {
        u = static_cast<vertex_id>(r.below(spec_.n()));
        v = static_cast<vertex_id>(r.below(spec_.n()));
      }
      if (u == v) continue;
      edge e = edge{u, v}.canonical();
      uint64_t k = key_of(e);
      if (pos_.count(k) != 0 || reserved_.count(k) != 0) continue;
      return e;
    }
  }

  /// RMAT with (a, b, c) = (0.57, 0.19, 0.19), ids scrambled by a seeded
  /// permutation so that degree does not follow vertex id.
  std::pair<vertex_id, vertex_id> rmat_pair(rng& r) {
    vertex_id u = 0, v = 0;
    for (int b = 0; b < spec_.log_n; ++b) {
      const double x = r.unit();
      u <<= 1;
      v <<= 1;
      if (x < 0.57) {
      } else if (x < 0.76) {
        v |= 1;
      } else if (x < 0.95) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    return {perm_[u], perm_[v]};
  }

  void add_live(edge e) {
    reserved_.erase(key_of(e));
    pos_[key_of(e)] = live_list_.size();
    live_list_.push_back(e);
  }
  void remove_live(edge e) {
    auto it = pos_.find(key_of(e));
    size_t i = it->second;
    pos_.erase(it);
    edge last = live_list_.back();
    live_list_.pop_back();
    if (i < live_list_.size()) {
      live_list_[i] = last;
      pos_[key_of(last)] = i;
    }
    if (spec_.kind == round_kind::churn) reserved_.insert(key_of(e));
  }

  static constexpr uint64_t kGraphSeed = 0x6a09e667f3bcc908ULL;  // see top
  workload_spec spec_;
  rng rng_;  // the traffic; seeded from --seed
  std::vector<vertex_id> perm_;
  std::vector<edge> live_list_;                  // live edges, any order
  std::unordered_map<uint64_t, size_t> pos_;     // key -> index in list
  std::deque<edge> reserve_;                     // churn: re-insert FIFO
  std::unordered_set<uint64_t> reserved_;        // keys in reserve_
  std::deque<edge> window_;                      // window: arrival order
};

}  // namespace perfbench
