// VIOLATING fixture (rule: wallclock): each wall-clock read the rule knows;
// any of them would let the date into a result.
#include <sys/time.h>

#include <chrono>
#include <ctime>

namespace fixture {

long long stamp() {
  const auto now = std::chrono::system_clock::now();  // expect: wallclock
  long long total = now.time_since_epoch().count();
  std::time_t t = time(nullptr);  // expect: wallclock
  total += static_cast<long long>(t);
  t = std::time(nullptr);  // expect: wallclock
  timeval tv{};
  gettimeofday(&tv, nullptr);  // expect: wallclock
  total += tv.tv_sec;
  const std::tm* local = localtime(&t);  // expect: wallclock
  total += local->tm_year;
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);  // expect: wallclock
  return total + ts.tv_sec;
}

}  // namespace fixture
