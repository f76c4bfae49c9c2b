// CLEAN fixture (rule: scheme-dispatch): inside src/scheme/ the switch is
// the registry's own implementation — the rule exempts the module by path.
namespace streamcast::core {
enum class Scheme { kChain, kHypercube };
}  // namespace streamcast::core

namespace streamcast::scheme {

const char* scheme_name(core::Scheme scheme) {
  switch (scheme) {
    case core::Scheme::kChain:
      return "chain";
    case core::Scheme::kHypercube:
      return "hypercube";
  }
  return "unknown";
}

}  // namespace streamcast::scheme
