#include "ett/ett_forest.hpp"

namespace bdc {

ett_forest::ett_forest(bdc::substrate s, vertex_id n, uint64_t seed)
    : impl_(make(s, n, seed)), kind_(s) {}

ett_forest::impl ett_forest::make(bdc::substrate s, vertex_id n,
                                  uint64_t seed) {
  switch (s) {
    case substrate::treap:
      return std::make_unique<treap_ett>(n, seed);
    case substrate::blocked:
      return std::make_unique<blocked_ett>(n, seed);
    case substrate::skiplist:
      break;
  }
  return std::make_unique<euler_tour_forest>(n, seed);
}

}  // namespace bdc
