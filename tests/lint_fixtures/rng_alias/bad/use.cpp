// VIOLATING fixture (rule: rng) that no name match can see: no line of
// this file spells a std engine name — the banned canonical type arrives
// through the alias in fast_rng.hpp. Only an engine that resolves FastRng
// to mersenne_twister_engine can flag the declaration.
#include "fast_rng.hpp"

namespace fixture {

unsigned draw() {
  FastRng rng(42);
  return static_cast<unsigned>(rng());
}

}  // namespace fixture
