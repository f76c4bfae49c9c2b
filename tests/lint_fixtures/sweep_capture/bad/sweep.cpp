// VIOLATING fixture (rule: sweep-capture) that no single line shows: the
// [&] default capture sits on a different line than the parallel_for call;
// only scanning the call's full argument list sees it.
namespace run {
template <class F>
void parallel_for(int begin, int end, F body) {
  for (int i = begin; i < end; ++i) body(i);
}
}  // namespace run

namespace fixture {

int sweep() {
  int shared = 0;
  run::parallel_for(
      0, 8,
      [&](int i) { shared += i; });
  return shared;
}

}  // namespace fixture
