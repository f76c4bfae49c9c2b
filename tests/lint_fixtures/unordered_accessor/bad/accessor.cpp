// VIOLATING fixture (rule: unordered-iteration): each range-for iterates an
// accessor's result, one returned by reference and one by value, so the
// loop names a call rather than a declared variable. Hash order still leaks
// into the sum.
#include <unordered_map>
#include <unordered_set>

namespace fixture {

class Holder {
 public:
  const std::unordered_set<int>& seen() const { return seen_; }
  std::unordered_map<int, int> table() const { return table_; }

 private:
  std::unordered_set<int> seen_{1, 2};
  std::unordered_map<int, int> table_{{1, 10}, {2, 20}};
};

int sum_values(const Holder& h) {
  int sum = 0;
  for (const int x : h.seen()) {  // expect: unordered-iteration
    sum += x;
  }
  for (const auto& kv : h.table()) {  // expect: unordered-iteration
    sum += kv.second;
  }
  return sum;
}

}  // namespace fixture
