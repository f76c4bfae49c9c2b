// VIOLATING fixture (rule: unordered-iteration) that a same-file
// declaration match cannot see: this file declares through the Index alias
// from index.hpp — the implementation-defined hash order still leaks into
// the sum below.
#include "index.hpp"

namespace fixture {

int sum_values() {
  Index table_;
  table_[1] = 10;
  table_[2] = 20;
  int sum = 0;
  for (const auto& kv : table_) {
    sum += kv.second;
  }
  return sum;
}

}  // namespace fixture
