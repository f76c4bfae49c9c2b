// CLEAN fixture (rule: unordered-iteration): an accessor that returns an
// ordered container iterates in key order.
#include <map>

namespace fixture {

class Holder {
 public:
  const std::map<int, int>& table() const { return table_; }

 private:
  std::map<int, int> table_{{1, 10}, {2, 20}};
};

int sum_values(const Holder& h) {
  int sum = 0;
  for (const auto& kv : h.table()) {
    sum += kv.second;
  }
  return sum;
}

}  // namespace fixture
