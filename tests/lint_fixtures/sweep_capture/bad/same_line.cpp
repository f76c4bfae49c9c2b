// VIOLATING fixture (rule: sweep-capture): [&] on the call's own line —
// inside the argument list, and bound to a name just before the call, where
// no lambda sits inside the call for either engine to see.
namespace run {
template <class F>
void parallel_for(int begin, int end, F body) {
  for (int i = begin; i < end; ++i) body(i);
}
}  // namespace run

namespace fixture {

int inline_capture() {
  int s = 0;
  run::parallel_for(0, 8, [&](int i) { s += i; });  // expect: sweep-capture
  return s;
}

int bound_capture() {
  int s = 0;
  // clang-format off
  auto f = [&](int i) { s += i; }; run::parallel_for(0, 8, f);  // expect: sweep-capture
  // clang-format on
  return s;
}

}  // namespace fixture
