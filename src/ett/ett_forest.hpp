// The forest value type the level structure holds: one owning variant
// over the three concrete substrates, with static dispatch.
//
// `ett_forest` owns exactly one substrate (`euler_tour_forest`,
// `treap_ett` or `blocked_ett`), chosen at runtime by `bdc::substrate`.
// Every forwarder dispatches with `std::visit`, and because all three
// substrates are `final` and satisfy the `euler_tour_substrate` concept
// (src/ett/ett_substrate.hpp), the calls inside each visit arm are
// direct, inlinable member calls — the blocked substrate answers
// `connected`/`find_rep` with O(1) pointer reads, where an indirect call
// per operation would be a large relative overhead. The substrate lives
// behind a `unique_ptr`, so its address (which the epoch-bound node pool
// of the serving top forest hands to readers) survives moves of the
// forest itself.
//
// Callers with per-element loops should hoist the dispatch once around
// the whole loop instead of paying it per element:
//
//   forest.visit([&](auto& f) {            // one dispatch...
//     parallel_for(0, k, [&](size_t i) {
//       out[i] = f.connected(qs[i].first, qs[i].second);  // ...N direct calls
//     });
//   });
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "ett/blocked_ett.hpp"
#include "ett/ett_counts.hpp"
#include "ett/ett_substrate.hpp"
#include "ett/euler_tour_tree.hpp"
#include "ett/treap_ett.hpp"
#include "obs/telemetry.hpp"
#include "util/node_pool.hpp"
#include "util/types.hpp"

namespace bdc {

class ett_forest {
 public:
  using rep = ett_substrate::rep;
  using count_delta = ett_substrate::count_delta;

  /// Materializes an empty n-vertex forest over substrate `s`.
  ett_forest(bdc::substrate s, vertex_id n, uint64_t seed);

  [[nodiscard]] bdc::substrate substrate_kind() const { return kind_; }

  /// One dispatch, then `fn` runs on the concrete substrate reference.
  /// Use this to hoist the dispatch out of per-element loops.
  template <typename F>
  decltype(auto) visit(F&& fn) {
    return std::visit([&](auto& f) -> decltype(auto) { return fn(*f); },
                      impl_);
  }
  template <typename F>
  decltype(auto) visit(F&& fn) const {
    return std::visit(
        [&](auto& f) -> decltype(auto) { return fn(std::as_const(*f)); },
        impl_);
  }

  // ------------------------------------------------------------------
  // Forwarders: the full substrate contract, one visit per call.
  // ------------------------------------------------------------------

  [[nodiscard]] size_t num_vertices() const {
    return visit([](auto& f) { return f.num_vertices(); });
  }
  [[nodiscard]] size_t num_edges() const {
    return visit([](auto& f) { return f.num_edges(); });
  }

  // The three mutating batch ops carry phase spans: instrumenting the
  // forwarder covers all three substrates at once, and the empty-batch
  // guard keeps the no-op calls that pepper the level loop out of the
  // histograms (a span on a 0-edge batch is pure noise).
  void batch_link(std::span<const edge> links) {
    if (links.empty()) return;
    BDC_PHASE_SPAN(sp, "ett.batch_link");
    visit([&](auto& f) { f.batch_link(links); });
  }
  void batch_cut(std::span<const edge> cuts) {
    if (cuts.empty()) return;
    BDC_PHASE_SPAN(sp, "ett.batch_cut");
    visit([&](auto& f) { f.batch_cut(cuts); });
  }
  void batch_add_counts(std::span<const count_delta> deltas) {
    if (deltas.empty()) return;
    BDC_PHASE_SPAN(sp, "ett.batch_add_counts");
    visit([&](auto& f) { f.batch_add_counts(deltas); });
  }
  void link(edge e) { batch_link({&e, 1}); }
  void cut(edge e) { batch_cut({&e, 1}); }

  [[nodiscard]] bool has_edge(edge e) const {
    return visit([&](auto& f) { return f.has_edge(e); });
  }
  [[nodiscard]] bool connected(vertex_id u, vertex_id v) const {
    return visit([&](auto& f) { return f.connected(u, v); });
  }
  [[nodiscard]] std::vector<bool> batch_connected(
      std::span<const std::pair<vertex_id, vertex_id>> queries) const {
    return visit([&](auto& f) { return f.batch_connected(queries); });
  }

  [[nodiscard]] rep find_rep(vertex_id v) const {
    return visit([&](auto& f) { return f.find_rep(v); });
  }
  [[nodiscard]] std::vector<rep> batch_find_rep(
      std::span<const vertex_id> vs) const {
    return visit([&](auto& f) { return f.batch_find_rep(vs); });
  }

  [[nodiscard]] ett_counts component_counts(vertex_id v) const {
    return visit([&](auto& f) { return f.component_counts(v); });
  }
  [[nodiscard]] uint32_t component_size(vertex_id v) const {
    return component_counts(v).vertices;
  }
  [[nodiscard]] ett_counts vertex_counts(vertex_id v) const {
    return visit([&](auto& f) { return f.vertex_counts(v); });
  }

  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_nontree(
      vertex_id v, uint64_t want) const {
    return visit([&](auto& f) { return f.fetch_nontree(v, want); });
  }
  [[nodiscard]] std::vector<std::pair<vertex_id, uint32_t>> fetch_tree(
      vertex_id v, uint64_t want) const {
    return visit([&](auto& f) { return f.fetch_tree(v, want); });
  }

  [[nodiscard]] std::vector<vertex_id> component_vertices(
      vertex_id v) const {
    return visit([&](auto& f) { return f.component_vertices(v); });
  }

  /// Enumerates the component with representative `r` in tour order; see
  /// euler_tour_substrate::for_each_tour_vertex. Hoist the dispatch
  /// yourself (visit + the substrate's overload) when enumerating many
  /// components.
  template <typename F>
  void for_each_tour_vertex(rep r, F&& f) const {
    visit([&](auto& fc) { fc.for_each_tour_vertex(r, f); });
  }

  [[nodiscard]] std::string check_consistency() const {
    return visit([](auto& f) { return f.check_consistency(); });
  }

  [[nodiscard]] node_pool::stats_snapshot pool_stats() const {
    return visit([](auto& f) { return f.pool_stats(); });
  }
  size_t trim_pool(size_t keep_bytes = 0) {
    return visit([&](auto& f) { return f.trim_pool(keep_bytes); });
  }
  /// Vertices currently holding a sparse-directory slot in this forest.
  [[nodiscard]] uint64_t active_vertices() const {
    return visit([](auto& f) { return f.active_vertices(); });
  }
  /// Bytes retained by this forest's per-vertex directory.
  [[nodiscard]] size_t directory_bytes() const {
    return visit([](auto& f) { return f.directory_bytes(); });
  }

  // Read-side snapshot contract (relaxed_read_substrate in
  // ett_substrate.hpp). Substrates outside it get the defaults here:
  // no relaxed answers, no epoch binding, nothing to drain.
  [[nodiscard]] std::optional<bool> connected_relaxed(vertex_id u,
                                                      vertex_id v) const {
    return visit([&](auto& f) -> std::optional<bool> {
      if constexpr (relaxed<decltype(f)>)
        return f.connected_relaxed(u, v);
      else
        return std::nullopt;
    });
  }
  void bind_read_epochs(epoch_manager* em) {
    visit([&](auto& f) {
      if constexpr (relaxed<decltype(f)>) f.bind_read_epochs(em);
    });
  }
  size_t drain_limbo() {
    return visit([](auto& f) -> size_t {
      if constexpr (relaxed<decltype(f)>)
        return f.drain_limbo();
      else
        return 0;
    });
  }

 private:
  using impl = std::variant<std::unique_ptr<euler_tour_forest>,
                            std::unique_ptr<treap_ett>,
                            std::unique_ptr<blocked_ett>>;
  static impl make(bdc::substrate s, vertex_id n, uint64_t seed);

  /// Whether the substrate a visit arm receives as `S&` meets the
  /// optional relaxed-read contract.
  template <typename S>
  static constexpr bool relaxed =
      relaxed_read_substrate<std::remove_cvref_t<S>>;

  impl impl_;
  bdc::substrate kind_;
};

}  // namespace bdc
