// VIOLATING fixture (rule: overlay-seed): a member Prng initialized from a
// literal in the second randomized-overlay module.
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
  Overlay() : prng_(7) {}  // expect: overlay-seed

 private:
  util::Prng prng_;
};

}  // namespace fixture
