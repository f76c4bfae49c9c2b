// VIOLATING fixture (rule: rng): the C generator and the std engines by
// name, including a temporary that declares nothing a type check could see.
#include <cstdlib>
#include <random>

namespace fixture {

unsigned draws() {
  std::random_device entropy;  // expect: rng
  unsigned total = entropy();
  total += static_cast<unsigned>(rand());  // expect: rng
  total += 1;
  srand(7);  // expect: rng
  total += 2;
  total += static_cast<unsigned>(std::rand());  // expect: rng
  total += 3;
  return total + static_cast<unsigned>(std::mt19937(5)());  // expect: rng
}

using Engine = std::mt19937;  // expect: rng

unsigned seeded() {
  // An alias use and an engine name on one line: one finding.
  Engine engine(std::mt19937::default_seed);  // expect: rng
  return static_cast<unsigned>(engine());
}

}  // namespace fixture
