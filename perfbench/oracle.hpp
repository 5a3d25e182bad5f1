// The benchmark's checker: its own edge-set model and union-find, and a
// replay that compares everything a pass recorded against them.
//
// A pass records, without checking anything between timed calls:
//   * num_edges() after every update batch;
//   * a fingerprint of every batch_connected answer vector;
//   * a spread-out sample of snapshot reads with the `state` each read
//     reports (the number of committed update batches it reflects);
//   * components() at the end.
// check_pass() regenerates the same rounds from the seed, applies them to
// the model batch by batch, and checks each record against the model at
// the matching point. Nothing here uses src/spanning or src/gen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

class union_find {
 public:
  explicit union_find(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), vertex_id{0});
  }
  vertex_id find(vertex_id x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(vertex_id a, vertex_id b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<vertex_id> parent_;
  std::vector<uint32_t> size_;
};

/// Order-sensitive fingerprint of one answer vector: any single flipped
/// answer changes it.
inline uint64_t answer_fingerprint(const std::vector<bool>& answers,
                                   uint64_t salt) {
  uint64_t h = mix64(salt ^ answers.size());
  for (size_t i = 0; i < answers.size(); ++i)
    if (answers[i]) h ^= mix64((salt << 32) + i + 1);
  return h;
}

struct read_record {
  uint64_t state = 0;
  vertex_id u = 0;
  vertex_id v = 0;
  bool answer = false;
};

/// What a pass leaves for the checker.
struct pass_record {
  size_t rounds = 0;                   // warm-up + timed
  std::vector<uint64_t> edge_counts;   // after set-up, then every batch
  std::vector<uint64_t> query_prints;  // one per batch_connected call
  std::vector<read_record> reads;      // sampled snapshot reads
  std::vector<vertex_id> final_labels;  // components() at the end
};

/// Attempted/failed per kind of checked operation.
struct op_counts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  op_counts& operator+=(const op_counts& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

struct check_result {
  op_counts update_batches;  // num_edges() after each update batch
  op_counts query_batches;   // each batch_connected answer vector
  op_counts snapshot_reads;  // each recorded snapshot read
  op_counts final_state;     // components() at the end
  [[nodiscard]] op_counts total() const {
    op_counts t;
    t += update_batches;
    t += query_batches;
    t += snapshot_reads;
    t += final_state;
    return t;
  }
};

/// The checker's edge set and the connectivity it implies. The union-find
/// is rebuilt from the flat edge list whenever a batch has changed it.
class oracle_model {
 public:
  explicit oracle_model(vertex_id n) : n_(n) {}

  void insert(const std::vector<edge>& es) {
    for (edge e : es) {
      if (!pos_.emplace(key_of(e), live_.size()).second) continue;
      live_.push_back(e);
    }
    uf_valid_ = false;
  }
  void erase(const std::vector<edge>& es) {
    for (edge e : es) {
      auto it = pos_.find(key_of(e));
      if (it == pos_.end()) continue;
      const size_t i = it->second;
      pos_.erase(it);
      if (i + 1 < live_.size()) {
        live_[i] = live_.back();
        pos_[key_of(live_[i])] = i;
      }
      live_.pop_back();
    }
    uf_valid_ = false;
  }
  [[nodiscard]] uint64_t num_edges() const { return live_.size(); }

  bool connected(vertex_id u, vertex_id v) {
    refresh();
    return uf_.find(u) == uf_.find(v);
  }
  /// Smallest vertex id of each vertex's component.
  std::vector<vertex_id> labels() {
    refresh();
    std::vector<vertex_id> min_of(n_, bdc::kNoVertex);
    for (vertex_id v = 0; v < n_; ++v) {
      vertex_id& m = min_of[uf_.find(v)];
      m = std::min(m, v);
    }
    std::vector<vertex_id> out(n_);
    for (vertex_id v = 0; v < n_; ++v) out[v] = min_of[uf_.find(v)];
    return out;
  }

 private:
  void refresh() {
    if (uf_valid_) return;
    uf_ = union_find(n_);
    for (edge e : live_) uf_.unite(e.u, e.v);
    uf_valid_ = true;
  }

  vertex_id n_;
  std::vector<edge> live_;
  std::unordered_map<uint64_t, size_t> pos_;  // key -> index in live_
  union_find uf_{0};
  bool uf_valid_ = false;
};

/// Replays (spec, seed) for rec.rounds rounds and checks every record.
inline check_result check_pass(const workload_spec& spec, uint64_t seed,
                               pass_record rec) {
  check_result out;
  traffic t(spec, seed);
  oracle_model model(spec.n());
  std::sort(rec.reads.begin(), rec.reads.end(),
            [](const read_record& a, const read_record& b) {
              return a.state < b.state;
            });
  size_t next_read = 0;
  size_t next_count = 0;
  size_t next_print = 0;
  uint64_t version = 0;  // committed update batches so far

  auto check_reads = [&] {
    while (next_read < rec.reads.size() &&
           rec.reads[next_read].state <= version) {
      const read_record& r = rec.reads[next_read++];
      out.snapshot_reads.add(r.state == version &&
                             r.answer == model.connected(r.u, r.v));
    }
  };
  auto after_batch = [&] {
    ++version;
    out.update_batches.add(next_count < rec.edge_counts.size() &&
                           rec.edge_counts[next_count] == model.num_edges());
    ++next_count;
    check_reads();
  };

  check_reads();  // reads of the empty structure, if any
  model.insert(t.initial());
  after_batch();
  round_ops ops;
  for (size_t r = 0; r < rec.rounds; ++r) {
    t.next_round(ops);
    if (ops.first_is_insert) model.insert(ops.first);
    else model.erase(ops.first);
    after_batch();
    if (!ops.queries.empty()) {
      std::vector<bool> expect(ops.queries.size());
      for (size_t i = 0; i < ops.queries.size(); ++i)
        expect[i] = model.connected(ops.queries[i].first,
                                    ops.queries[i].second);
      out.query_batches.add(next_print < rec.query_prints.size() &&
                            rec.query_prints[next_print] ==
                                answer_fingerprint(expect, next_print));
      ++next_print;
    }
    if (ops.first_is_insert) model.erase(ops.second);
    else model.insert(ops.second);
    after_batch();
  }
  // Records the replay never reached: a read from a state that was never
  // committed, or more batches than the pass ran.
  for (; next_read < rec.reads.size(); ++next_read)
    out.snapshot_reads.add(false);
  for (; next_count < rec.edge_counts.size(); ++next_count)
    out.update_batches.add(false);
  for (; next_print < rec.query_prints.size(); ++next_print)
    out.query_batches.add(false);
  out.final_state.add(rec.final_labels == model.labels());
  return out;
}

}  // namespace perfbench
