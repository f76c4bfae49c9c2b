#include "src/run/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

namespace streamcast::run {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("STREAMCAST_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  SweepOptions options) {
  const int threads = resolve_threads(options.threads);
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  const auto worker = [&next, &errors, &body, count] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthread joins on scope exit, so no task outlives this call.
    std::vector<std::jthread> pool;
    const std::size_t spawn =
        std::min(count, static_cast<std::size_t>(threads));
    pool.reserve(spawn);
    for (std::size_t w = 0; w < spawn; ++w) pool.emplace_back(worker);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<TaskResult> run_sweep(const std::vector<core::SessionConfig>& tasks,
                                  SweepOptions options) {
  std::vector<TaskResult> results(tasks.size());
  parallel_for(
      tasks.size(),
      [&results, &tasks](std::size_t i) {
        try {
          static_cast<core::RunResult&>(results[i]) =
              core::run_session(tasks[i]);
        } catch (...) {
          results[i].error = std::current_exception();
        }
      },
      options);
  return results;
}

void require_all(const std::vector<TaskResult>& results) {
  for (const TaskResult& r : results) {
    if (r.error) std::rethrow_exception(r.error);
  }
}

}  // namespace streamcast::run
