// Per-layer attribution from the library's own phase spans.
//
// The traced pass drains obs::trace_recorder after every round and folds
// the events here. A span's self time is its duration minus the time its
// child spans cover; children are found by interval nesting on the
// recording thread (every span the library records opens and closes on
// the thread that issued the batch call).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace perfbench {

struct span_total {
  double total_s = 0;
  double self_s = 0;
  uint64_t calls = 0;
};

class span_ledger {
 public:
  void fold(std::vector<bdc::obs::trace_event> events) {
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                       if (a.tid != b.tid) return a.tid < b.tid;
                       if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                       return a.dur_ns > b.dur_ns;  // parent before child
                     });
    std::vector<open_span> stack;
    uint32_t tid = 0;
    for (const auto& ev : events) {
      if (ev.ph != 'X') continue;
      if (ev.tid != tid) {
        close_all(stack);
        tid = ev.tid;
      }
      while (!stack.empty() && stack.back().end_ns <= ev.ts_ns)
        close(stack);
      if (!stack.empty()) stack.back().child_ns += ev.dur_ns;
      stack.push_back({ev.name, ev.ts_ns + ev.dur_ns, ev.dur_ns, 0});
    }
    close_all(stack);
  }

  [[nodiscard]] span_total get(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? span_total{} : it->second;
  }

 private:
  struct open_span {
    const char* name;
    uint64_t end_ns;
    uint64_t dur_ns;
    uint64_t child_ns;
  };
  void close(std::vector<open_span>& stack) {
    const open_span& s = stack.back();
    span_total& t = totals_[s.name];
    t.total_s += static_cast<double>(s.dur_ns) * 1e-9;
    t.self_s += static_cast<double>(s.dur_ns - std::min(s.child_ns, s.dur_ns)) *
                1e-9;
    ++t.calls;
    stack.pop_back();
  }
  void close_all(std::vector<open_span>& stack) {
    while (!stack.empty()) close(stack);
  }

  std::map<std::string, span_total> totals_;
};

}  // namespace perfbench
