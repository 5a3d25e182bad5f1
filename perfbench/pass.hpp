// One pass of a workload against the library: set-up, warm-up, timed
// closed-loop traffic and the final state, with everything the checker
// and the metrics need recorded along the way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_connectivity.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace perfbench {

struct pass_config {
  unsigned workers = 2;
  size_t rounds = 1;    // timed rounds
  int setups = 1;       // set-ups timed; the last one serves the traffic
  bool traced = false;  // record library spans during timed traffic
  bool flip_query_answer = false;  // self-test: corrupt one recorded answer
};

struct reader_totals {
  uint64_t reads = 0;
  uint64_t pins = 0;
  double pin_s = 0;     // inside snapshot_query()
  double answer_s = 0;  // inside view.connected() blocks
};

struct pass_result {
  pass_record rec;
  size_t timed_rounds = 0;
  std::vector<double> setup_s;
  // Timed traffic: time inside each kind of call, and what was passed.
  double insert_s = 0;
  double delete_s = 0;
  double query_s = 0;
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  uint64_t queried = 0;
  std::vector<double> delete_ms;  // one sample per timed batch_delete
  double traffic_s = 0;           // wall time of timed traffic
  reader_totals readers;
  // Library-side accounting over timed traffic (deltas) and at the end.
  bdc::statistics stats;
  uint64_t pool_fresh = 0;
  bdc::level_structure::hierarchy_stats footprint;
  uint64_t pool_retained_bytes = 0;
  // Traced passes only.
  span_ledger spans;
  uint64_t trace_dropped = 0;
  bool invariants_ok = true;
  std::string invariants_message;

  [[nodiscard]] double call_s() const { return insert_s + delete_s + query_s; }
};

pass_result run_pass(const workload_spec& spec, uint64_t seed,
                     const pass_config& cfg);

}  // namespace perfbench
