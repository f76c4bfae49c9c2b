// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Clean fixture: node-based containers in a hot-path-tagged file, each with
// a reasoned allow marker (same-line or previous-line), next to spellings
// the rule must not mistake for them.
#include <initializer_list>
#include <set>
#include <unordered_set>

namespace fixture {

struct ColdControlPlane {
  // lint: allow(hot-path-alloc) — one node per parity delivery, rare
  std::unordered_set<unsigned long long> seen_control;
  std::set<int> tags;  // lint: allow(hot-path-alloc) — built once at setup
};

int sum(std::initializer_list<int> values) {
  int total = 0;
  for (const int v : values) total += v;
  return total;
}

}  // namespace fixture
