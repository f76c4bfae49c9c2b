// CLEAN fixture (rule: raw-thread): std::jthread joins on scope exit, and
// hardware_concurrency() is a query, not a spawn.
#include <thread>

namespace fixture {

void work() {}

unsigned spawn() {
  std::jthread worker(work);
  return std::thread::hardware_concurrency();
}

}  // namespace fixture
