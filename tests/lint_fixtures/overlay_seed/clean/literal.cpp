// CLEAN fixture (rule: overlay-seed): outside src/rrd/ and src/dyntree/ —
// in tests and benches — a literal seed is the point.
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

std::uint64_t pinned_draw() {
  util::Prng rng(42);
  return rng.state;
}

}  // namespace fixture
