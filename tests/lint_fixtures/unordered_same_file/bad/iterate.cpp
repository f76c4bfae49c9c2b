// VIOLATING fixture (rule: unordered-iteration): the container is declared
// in the same file as the range-for that iterates it in hash order.
#include <unordered_map>

namespace fixture {

int sum_values() {
  std::unordered_map<int, int> table{{1, 10}, {2, 20}};
  int sum = 0;
  for (const auto& kv : table) {  // expect: unordered-iteration
    sum += kv.second;
  }
  return sum;
}

}  // namespace fixture
