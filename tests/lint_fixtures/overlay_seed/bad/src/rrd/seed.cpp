// VIOLATING fixture (rule: overlay-seed): randomized-overlay Prngs born
// from literals, cut off from SessionConfig::seed.
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

std::uint64_t named() {
  util::Prng rng(42);  // expect: overlay-seed
  return rng.state;
}

std::uint64_t temporary() {
  return util::Prng{0x5eed}.state;  // expect: overlay-seed
}

}  // namespace fixture
