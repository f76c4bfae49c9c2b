// CLEAN fixture (rule: wallclock): benches may measure durations on the
// monotonic clock, and names that merely contain `time` are not reads.
#include <chrono>

namespace fixture {

long long slot_time(long long slot) { return 2 * slot; }

long long elapsed_ns() {
  const auto start = std::chrono::steady_clock::now();
  const long long runtime = slot_time(3);
  const auto end = std::chrono::steady_clock::now();
  return runtime + (end - start).count();
}

}  // namespace fixture
