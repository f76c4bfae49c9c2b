// CLEAN fixture (rule: rng): the seeded util::Prng, and names that merely
// end in `rand`.
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

std::uint64_t operand(std::uint64_t x) { return x; }

std::uint64_t draw() {
  util::Prng prng(42);
  return operand(prng.state);
}

}  // namespace fixture
