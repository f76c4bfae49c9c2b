// VIOLATING fixture (rule: rng) that no name match can see: the
// declaration below spells only Gen::engine_type, never a std engine name;
// resolving the member typedef to linear_congruential_engine takes a
// semantic pass.
#include "gen.hpp"

namespace fixture {

unsigned draw() {
  Gen::engine_type engine(7);
  return static_cast<unsigned>(engine());
}

}  // namespace fixture
