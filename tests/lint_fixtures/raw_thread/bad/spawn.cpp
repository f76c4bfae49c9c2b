// VIOLATING fixture (rule: raw-thread): a raw std::thread escapes the sweep
// runner's join discipline.
#include <thread>

namespace fixture {

void work() {}

void spawn() {
  std::thread worker(work);  // expect: raw-thread
  worker.join();
}

}  // namespace fixture
