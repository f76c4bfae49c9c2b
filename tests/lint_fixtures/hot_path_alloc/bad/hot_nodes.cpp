// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Violating fixture: node-based standard containers in a hot-path-tagged
// file with no allow marker. Every spelling allocates one heap node per
// element, so each must be flagged.
#include <deque>
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

struct RecoveryState {
  std::map<long long, int> pending;
  std::set<long long> ahead;
  std::multimap<int, int> by_tag;
  std::multiset<int> tags;
  std::unordered_set<unsigned long long> in_flight;
  std::unordered_map<int, long long> last_emitted;
  std::list<int> queue;
  std::deque<int> parity_queue;
};

}  // namespace fixture
