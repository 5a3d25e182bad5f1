// Shared test helper: the substrate configurations the differential
// suites sweep — every uniform backend plus the mixed per-level policies.
// One table, included by ett_test, connectivity_test,
// connectivity_property_test, and substrate_fuzz_test, so the
// parameterized suites and the fuzz differential can never drift onto
// different grids when a substrate or policy shape is added.
#pragma once

#include "core/batch_connectivity.hpp"
#include "ett/ett_forest.hpp"
#include "ett/ett_substrate.hpp"

namespace bdc::testing {

// A substrate configuration: a uniform backend, or a mixed per-level
// policy (options::policy) handing the levels below its threshold to a
// second backend. The mixed rows cover every ordered pair of distinct
// backends, since one hierarchy may hold any two of the owning
// variant's alternatives and edges cross between them on every level
// push; "mixed_all_low" sets the threshold above every level, so even
// the top forest is the low backend while the primary is not.
struct sub_config {
  const char* name;
  substrate sub;
  level_policy policy;

  [[nodiscard]] options apply(options o) const {
    o.substrate = sub;
    o.policy = policy;
    return o;
  }
};

inline constexpr sub_config kSubConfigs[] = {
    {"skiplist", substrate::skiplist, {}},
    {"treap", substrate::treap, {}},
    {"blocked", substrate::blocked, {}},
    {"mixed", substrate::skiplist, {4, substrate::blocked}},
    {"skiplist_over_treap", substrate::skiplist, {4, substrate::treap}},
    {"treap_over_skiplist", substrate::treap, {4, substrate::skiplist}},
    {"treap_over_blocked", substrate::treap, {4, substrate::blocked}},
    {"blocked_over_skiplist", substrate::blocked, {4, substrate::skiplist}},
    {"blocked_over_treap", substrate::blocked, {4, substrate::treap}},
    {"mixed_all_low", substrate::skiplist, {64, substrate::blocked}},
};

// The substrate-surface grid for suites that drive an ett_forest
// directly (no level structure / policy): every backend.
struct ett_config {
  const char* name;
  substrate sub;
};

inline constexpr ett_config kEttConfigs[] = {
    {"skiplist", substrate::skiplist},
    {"treap", substrate::treap},
    {"blocked", substrate::blocked},
};

}  // namespace bdc::testing
