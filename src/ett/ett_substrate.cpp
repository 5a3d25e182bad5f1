#include "ett/ett_substrate.hpp"

namespace bdc {

const char* to_string(substrate s) {
  switch (s) {
    case substrate::skiplist:
      return "skiplist";
    case substrate::treap:
      return "treap";
    case substrate::blocked:
      return "blocked";
  }
  return "unknown";
}

std::optional<substrate> substrate_from_string(std::string_view name) {
  if (name == "skiplist") return substrate::skiplist;
  if (name == "treap") return substrate::treap;
  if (name == "blocked") return substrate::blocked;
  return std::nullopt;
}

}  // namespace bdc
