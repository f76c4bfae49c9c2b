// VIOLATING fixture (rule: scheme-dispatch): a switch over the Scheme enum
// outside src/scheme/ recreates the per-call-site dispatch the registry
// replaced. Both spellings of the arm are flagged.
namespace streamcast::core {
enum class Scheme { kChain, kHypercube };
}  // namespace streamcast::core

namespace fixture {

using streamcast::core::Scheme;

const char* label(Scheme scheme) {
  switch (scheme) {
    case Scheme::kChain:  // expect: scheme-dispatch
      return "chain";
    case streamcast::core::Scheme::kHypercube:  // expect: scheme-dispatch
      return "hypercube";
  }
  return "unknown";
}

}  // namespace fixture
