// CLEAN fixture (rule: overlay-seed): the overlay threads its caller's seed
// into every Prng.
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

class Overlay {
 public:
  explicit Overlay(std::uint64_t seed) : prng_(seed) {}

  std::uint64_t fork(std::uint64_t seed) const {
    util::Prng child(seed ^ prng_.state);
    return child.state;
  }

 private:
  util::Prng prng_;
};

}  // namespace fixture
