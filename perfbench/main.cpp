// Connectivity benchmark driver.
//
//   bdc_perfbench --workload <rmat-delete|er-query|window-serve>
//                 --seed <n> --seconds <s> --trace <0|1>
//   bdc_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics on one untraced pass.
// --trace 1 runs three passes of the same rounds (untraced, traced, traced
// at one worker) and reports the per-layer metrics. Every pass is checked
// against the benchmark's own oracle. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
// check makes the exit code nonzero.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/telemetry.hpp"
#include "pass.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {
namespace {

/// Update workers of every measured run. --workers exists only to record
/// the scaling reference figures in README.md.
constexpr unsigned kWorkers = 2;
constexpr int kSetups = 5;  // set-up is timed this many times; median
/// Share of a run's rounds given to each pass of a traced run (untraced,
/// traced, traced at one worker), so a traced run lasts about as long as
/// an untraced one.
constexpr double kTracedShare = 0.35;
/// trace.span_coverage must lie in [kCoverageMin, kCoverageMax].
constexpr double kCoverageMin = 0.95;
constexpr double kCoverageMax = 1.0 + 1e-9;

struct metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return std::strlen(PERFBENCH_SANITIZE) != 0;
}

void print_fingerprint(const workload_spec& spec, uint64_t seed,
                       double seconds, int trace, unsigned workers) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace);
  std::printf(
      "# machine nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s "
      "telemetry=%s sanitizer=%s\n",
      sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, bdc::obs::kTelemetryEnabled ? "ON" : "OFF",
      sanitized_build() ? "yes" : "none");
  std::printf("# threads workers=%u readers=%d\n", workers, spec.readers);
  std::printf(
      "# workload n=%u live_edges=%zu delta=%zu query_batch=%zu "
      "warmup_rounds=%d\n",
      spec.n(), spec.live_edges, spec.delta, spec.query_batch,
      spec.warmup_rounds);
}

/// Checked operations of a whole run, by kind.
struct run_checks {
  check_result passes;
  op_counts invariants;
  op_counts trace_coverage;
  [[nodiscard]] op_counts total() const {
    op_counts t = passes.total();
    t += invariants;
    t += trace_coverage;
    return t;
  }
};

void print_ops(const run_checks& c) {
  auto line = [](const char* kind, const op_counts& o) {
    std::printf("ops %-16s attempted=%llu failed=%llu\n", kind,
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
  };
  line("update_batches", c.passes.update_batches);
  line("query_batches", c.passes.query_batches);
  line("snapshot_reads", c.passes.snapshot_reads);
  line("final_state", c.passes.final_state);
  if (c.invariants.attempted > 0) line("invariants", c.invariants);
  if (c.trace_coverage.attempted > 0) line("trace_coverage", c.trace_coverage);
}

void check_into(run_checks& c, const workload_spec& spec, uint64_t seed,
                const pass_result& p) {
  const auto t0 = std::chrono::steady_clock::now();
  check_result r = check_pass(spec, seed, p.rec);
  std::printf("# check_s=%.3f\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
  c.passes.update_batches += r.update_batches;
  c.passes.query_batches += r.query_batches;
  c.passes.snapshot_reads += r.snapshot_reads;
  c.passes.final_state += r.final_state;
}

/// Prints the metric lines and the final JSON object; returns the exit
/// code.
int report(const std::vector<metric>& metrics, const run_checks& checks) {
  print_ops(checks);
  for (const metric& m : metrics)
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  const op_counts t = checks.total();
  const bool correct = t.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

size_t timed_rounds(const workload_spec& spec, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds * spec.rounds_per_second)));
}

int run_end_to_end(const workload_spec& spec, uint64_t seed, double seconds,
                   unsigned workers) {
  pass_config cfg;
  cfg.workers = workers;
  cfg.rounds = timed_rounds(spec, seconds);
  cfg.setups = kSetups;
  const pass_result p = run_pass(spec, seed, cfg);
  run_checks checks;
  check_into(checks, spec, seed, p);
  const double query_qps =
      spec.readers > 0 ? ratio(static_cast<double>(p.readers.reads),
                               p.traffic_s)
                       : ratio(static_cast<double>(p.queried), p.query_s);
  std::printf(
      "# traffic rounds=%zu wall_s=%.3f delete_batches=%zu setup_total_s=%.3f\n",
      p.timed_rounds, p.traffic_s, p.delete_ms.size(),
      std::accumulate(p.setup_s.begin(), p.setup_s.end(), 0.0));
  const std::vector<metric> metrics = {
      {"setup_s", quantile(p.setup_s, 0.5), "s"},
      {"insert_eps", ratio(static_cast<double>(p.inserted), p.insert_s),
       "edges/s"},
      {"delete_eps", ratio(static_cast<double>(p.deleted), p.delete_s),
       "edges/s"},
      {"query_qps", query_qps, "queries/s"},
      {"delete_p50_ms", quantile(p.delete_ms, 0.5), "ms"},
      {"delete_p90_ms", quantile(p.delete_ms, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  return report(metrics, checks);
}

int run_traced(const workload_spec& spec, uint64_t seed, double seconds,
               unsigned workers) {
  run_checks checks;
  pass_config cfg;
  cfg.workers = workers;
  cfg.rounds = timed_rounds(spec, seconds * kTracedShare);
  const pass_result a = run_pass(spec, seed, cfg);  // untraced reference
  check_into(checks, spec, seed, a);

  cfg.traced = true;
  const pass_result b = run_pass(spec, seed, cfg);  // traced, same rounds
  check_into(checks, spec, seed, b);
  checks.invariants.add(b.invariants_ok);
  if (!b.invariants_ok)
    std::printf("# invariants: %s\n", b.invariants_message.c_str());

  cfg.workers = 1;
  const pass_result c = run_pass(spec, seed, cfg);  // one worker
  check_into(checks, spec, seed, c);

  const span_ledger& s = b.spans;
  const double top_spans = s.get("batch.insert").total_s +
                           s.get("batch.delete").total_s +
                           s.get("batch.connected").total_s;
  const double coverage = ratio(top_spans, b.call_s());
  checks.trace_coverage.add(b.trace_dropped == 0 &&
                            coverage >= kCoverageMin &&
                            coverage <= kCoverageMax);
  std::printf("# traced rounds=%zu dropped_events=%llu\n", b.timed_rounds,
              static_cast<unsigned long long>(b.trace_dropped));

  const bdc::statistics& st = b.stats;
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  constexpr double kMiB = 1024.0 * 1024.0;
  const double query_speedup =
      spec.readers > 0
          ? ratio(ratio(c.traffic_s, count(c.readers.reads)),
                  ratio(b.traffic_s, count(b.readers.reads)))
          : ratio(c.query_s, b.query_s);
  const std::vector<metric> metrics = {
      {"delete.sanitize_s", s.get("delete.sanitize").total_s, "s"},
      {"delete.deregister_s", s.get("delete.deregister").total_s, "s"},
      {"delete.cut_self_s", s.get("delete.cut").self_s, "s"},
      {"delete.level_search_self_s", s.get("delete.level_search").self_s,
       "s"},
      {"search.replacement_self_s", s.get("search.replacement").self_s, "s"},
      {"core.levels_searched", count(st.levels_searched), "count"},
      {"core.doubling_phases", count(st.doubling_phases), "count"},
      {"core.edges_fetched", count(st.edges_fetched), "count"},
      {"core.edges_pushed", count(st.edges_pushed), "count"},
      {"core.replacements_promoted", count(st.replacements_promoted),
       "count"},
      {"core.tree_edges_deleted", count(st.tree_edges_deleted), "count"},
      {"core.pushes_per_delete",
       ratio(count(st.edges_pushed), count(st.edges_deleted)), "ratio"},
      {"core.fetch_yield",
       ratio(count(st.replacements_promoted), count(st.edges_fetched)),
       "ratio"},
      {"insert.sanitize_s", s.get("insert.sanitize").total_s, "s"},
      {"insert.self_s", s.get("batch.insert").self_s, "s"},
      {"ett.batch_link_s", s.get("ett.batch_link").total_s, "s"},
      {"ett.batch_cut_s", s.get("ett.batch_cut").total_s, "s"},
      {"ett.batch_add_counts_s", s.get("ett.batch_add_counts").total_s, "s"},
      {"ett.batch_link_calls", count(s.get("ett.batch_link").calls),
       "count"},
      {"ett.batch_cut_calls", count(s.get("ett.batch_cut").calls), "count"},
      {"ett.batch_add_counts_calls",
       count(s.get("ett.batch_add_counts").calls), "count"},
      {"query.self_s", s.get("batch.connected").self_s, "s"},
      {"publish.snapshot_s", s.get("publish.snapshot").total_s, "s"},
      {"publish.full_walk_share",
       ratio(count(st.publishes_full), count(st.snapshots_published)),
       "ratio"},
      {"publish.relabeled", count(st.publish_relabeled), "count"},
      {"epoch.drain_s", s.get("epoch.drain").total_s, "s"},
      {"read.pin_ns", 1e9 * ratio(b.readers.pin_s, count(b.readers.pins)),
       "ns"},
      {"read.answer_ns",
       1e9 * ratio(b.readers.answer_s, count(b.readers.reads)), "ns"},
      {"levels.mb", count(b.footprint.bytes) / kMiB, "MiB"},
      {"levels.active_vertices", count(b.footprint.active_vertices),
       "count"},
      {"levels.materialized", count(b.footprint.materialized), "count"},
      {"pool.retained_mb", count(b.pool_retained_bytes) / kMiB, "MiB"},
      {"pool.fresh", count(b.pool_fresh), "count"},
      {"parallel.insert_speedup", ratio(c.insert_s, b.insert_s), "ratio"},
      {"parallel.delete_speedup", ratio(c.delete_s, b.delete_s), "ratio"},
      {"parallel.query_speedup", query_speedup, "ratio"},
      {"trace.span_coverage", coverage, "ratio"},
      {"trace.overhead", ratio(b.call_s(), a.call_s()), "ratio"},
  };
  return report(metrics, checks);
}

// ---------------------------------------------------------------------
// Self-test: every workload end to end at a tiny size, then one injected
// fault per kind of check, each of which must be counted as failed.
// ---------------------------------------------------------------------

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };
  constexpr uint64_t kSeed = 7;
  pass_config cfg;
  cfg.workers = kWorkers;
  cfg.rounds = 24;
  cfg.setups = 2;
  for (const workload_spec& spec : workload_specs(/*tiny=*/true)) {
    for (bool traced : {false, true}) {
      cfg.traced = traced;
      const pass_result p = run_pass(spec, kSeed, cfg);
      const op_counts t = check_pass(spec, kSeed, p.rec).total();
      const std::string tag =
          spec.name + (traced ? " traced" : " untraced") + ": ";
      expect(t.attempted > 0 && t.failed == 0,
             tag + std::to_string(t.attempted) + " checks pass");
      if (traced)
        expect(p.invariants_ok && p.trace_dropped == 0,
               tag + "invariants hold, no trace events dropped");
      if (spec.readers > 0)
        expect(!p.rec.reads.empty(), tag + "snapshot reads recorded");
    }
  }
  cfg.traced = false;
  const auto specs = workload_specs(/*tiny=*/true);
  const workload_spec& churn = specs[0];
  const workload_spec& window = specs[2];

  pass_config flip = cfg;
  flip.flip_query_answer = true;
  {
    const check_result r =
        check_pass(churn, kSeed, run_pass(churn, kSeed, flip).rec);
    expect(r.query_batches.failed == 1 && r.total().failed == 1,
           "flipped query answer counted as one failed query batch");
  }
  {
    pass_record rec = run_pass(window, kSeed, cfg).rec;
    rec.reads.front().state = rec.edge_counts.size() + 5;  // never committed
    const check_result r = check_pass(window, kSeed, rec);
    expect(r.snapshot_reads.failed == 1 && r.total().failed == 1,
           "wrong snapshot state counted as one failed read");
  }
  {
    pass_record rec = run_pass(churn, kSeed, cfg).rec;
    rec.edge_counts[rec.edge_counts.size() / 2] += 1;
    const check_result r = check_pass(churn, kSeed, rec);
    expect(r.update_batches.failed == 1 && r.total().failed == 1,
           "wrong edge count counted as one failed update batch");
  }
  {
    pass_record rec = run_pass(churn, kSeed, cfg).rec;
    rec.final_labels.front() += 1;  // vertex 0's label is always 0
    const check_result r = check_pass(churn, kSeed, rec);
    expect(r.final_state.failed == 1 && r.total().failed == 1,
           "wrong final components counted as failed");
  }
  std::printf("selftest %s\n", bad == 0 ? "OK" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bdc_perfbench --workload <rmat-delete|er-query|"
               "window-serve> --seed <n> --seconds <s> --trace <0|1>\n"
               "                     [--workers <n>] [--readers <n>]\n"
               "       bdc_perfbench --selftest\n"
               "--workers (default 2) and --readers (window-serve only,\n"
               "default 1) are for the reference tables in README.md.\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  unsigned long workers = kWorkers;
  long readers = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (a == "--workers") {
      workers = std::strtoul(v, &end, 10);
    } else if (a == "--readers") {
      readers = std::strtol(v, &end, 10);
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  auto specs = workload_specs(/*tiny=*/false);
  workload_spec* spec = nullptr;
  for (workload_spec& s : specs)
    if (s.name == workload) spec = &s;
  // At most nproc threads in all: more workers or readers than cores
  // would measure the OS scheduler.
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (spec == nullptr || !(seconds > 0) || (trace != 0 && trace != 1) ||
      workers < 1 || static_cast<long>(workers) > cores ||
      (readers != -1 && (spec->readers == 0 || readers < 1 ||
                         readers + static_cast<long>(workers) > cores)))
    return usage();
  if (readers != -1) spec->readers = static_cast<int>(readers);

  print_fingerprint(*spec, seed, seconds, trace,
                    static_cast<unsigned>(workers));
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || sanitized_build()) {
    std::fprintf(stderr,
                 "refusing to report: build type %s%s; configure with "
                 "-DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE,
                 sanitized_build() ? " with a sanitizer" : "");
    return 3;
  }
  if (trace == 1 && !bdc::obs::kTelemetryEnabled) {
    std::fprintf(stderr,
                 "refusing to trace: the library was built with "
                 "BDC_TELEMETRY=OFF, so it records no spans\n");
    return 3;
  }
  return trace == 1
             ? run_traced(*spec, seed, seconds, static_cast<unsigned>(workers))
             : run_end_to_end(*spec, seed, seconds,
                              static_cast<unsigned>(workers));
}
