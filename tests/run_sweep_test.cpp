// Parallel sweep runner tests: byte-identical reports at every thread
// count across all six schemes (lossy runs included, each task owning its
// seeded PRNG), deterministic error surfacing, work distribution, and the
// STREAMCAST_THREADS override.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/streamcast.hpp"
#include "src/run/sweep.hpp"

namespace streamcast {
namespace {

using core::Scheme;
using core::SessionConfig;

/// The cross-scheme grid every thread count must reproduce byte-for-byte.
std::vector<SessionConfig> cross_scheme_grid() {
  std::vector<SessionConfig> tasks;
  for (const Scheme scheme :
       {Scheme::kMultiTreeStructured, Scheme::kMultiTreeGreedy}) {
    for (const sim::NodeKey n : {14, 40}) {
      for (const int d : {2, 3}) {
        tasks.push_back({.scheme = scheme, .n = n, .d = d});
      }
    }
  }
  for (const sim::NodeKey n : {7, 25}) {
    tasks.push_back({.scheme = Scheme::kHypercube, .n = n, .d = 1});
  }
  tasks.push_back({.scheme = Scheme::kHypercubeGrouped, .n = 24, .d = 2});
  tasks.push_back({.scheme = Scheme::kChain, .n = 20, .d = 1});
  tasks.push_back({.scheme = Scheme::kSingleTree, .n = 20, .d = 2});
  tasks.push_back({.scheme = Scheme::kMultiTreeGreedy,
                   .n = 30,
                   .d = 2,
                   .mode = multitree::StreamMode::kLivePipelined});
  // Lossy tasks: the erasure PRNG is seeded per task inside the session, so
  // no RNG state crosses task (or thread) boundaries.
  for (const double rate : {0.02, 0.1}) {
    SessionConfig lossy{.scheme = Scheme::kMultiTreeGreedy, .n = 25, .d = 2};
    lossy.loss.model = loss::ErasureKind::kBernoulli;
    lossy.loss.rate = rate;
    lossy.loss.seed = 0xabcd;
    tasks.push_back(lossy);
  }
  {
    SessionConfig ge{.scheme = Scheme::kChain, .n = 15, .d = 1};
    ge.loss.model = loss::ErasureKind::kGilbertElliott;
    ge.loss.seed = 7;
    tasks.push_back(ge);
  }
  return tasks;
}

/// Full textual rendering of a sweep outcome; equality here is the
/// byte-identical guarantee the runner promises.
std::string render(const std::vector<run::TaskResult>& results) {
  std::ostringstream os;
  for (const run::TaskResult& r : results) {
    if (r.error) {
      try {
        std::rethrow_exception(r.error);
      } catch (const std::exception& e) {
        os << "error: " << e.what() << "\n";
      }
      continue;
    }
    os << core::serialize(r) << "\n";
  }
  return os.str();
}

TEST(RunSweep, ByteIdenticalReportsAcrossThreadCounts) {
  const auto tasks = cross_scheme_grid();
  const auto serial = run::run_sweep(tasks, {.threads = 1});
  run::require_all(serial);
  const std::string expected = render(serial);
  for (const int threads : {2, 8}) {
    const auto parallel = run::run_sweep(tasks, {.threads = threads});
    EXPECT_EQ(expected, render(parallel)) << threads << " threads";
  }
}

TEST(RunSweep, MatchesDirectSessionRun) {
  SessionConfig cfg{.scheme = Scheme::kMultiTreeGreedy, .n = 40, .d = 3};
  const auto direct = core::run_session(cfg).qos;
  const auto swept = run::run_sweep({cfg}, {.threads = 4});
  ASSERT_EQ(swept.size(), 1u);
  ASSERT_FALSE(swept[0].error);
  EXPECT_EQ(direct.summary(), swept[0].qos.summary());
  EXPECT_EQ(direct.slots_simulated, swept[0].qos.slots_simulated);
}

TEST(RunSweep, ErrorsAreCapturedPerTaskAndRethrownInOrder) {
  std::vector<SessionConfig> tasks = {
      {.scheme = Scheme::kChain, .n = 5, .d = 1},
      {.scheme = Scheme::kChain, .n = 0, .d = 1},  // n < 1: invalid
      {.scheme = Scheme::kChain, .n = 6, .d = 1},
  };
  const auto results = run::run_sweep(tasks, {.threads = 4});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].error);
  EXPECT_TRUE(results[1].error);
  EXPECT_FALSE(results[2].error);
  EXPECT_GT(results[2].qos.transmissions, 0);
  EXPECT_THROW(run::require_all(results), std::invalid_argument);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  run::parallel_for(
      kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); },
      {.threads = 8});
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, RethrowsLowestIndexError) {
  EXPECT_THROW(
      run::parallel_for(
          16,
          [](std::size_t i) {
            if (i % 2 == 1) throw std::runtime_error("odd");
          },
          {.threads = 4}),
      std::runtime_error);
}

TEST(ResolveThreads, ExplicitRequestWins) {
  EXPECT_EQ(run::resolve_threads(3), 3);
  EXPECT_EQ(run::resolve_threads(1), 1);
}

TEST(ResolveThreads, EnvironmentOverrideApplies) {
  ASSERT_EQ(setenv("STREAMCAST_THREADS", "5", 1), 0);
  EXPECT_EQ(run::resolve_threads(0), 5);
  ASSERT_EQ(setenv("STREAMCAST_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(run::resolve_threads(0), 1);  // falls back to hardware
  ASSERT_EQ(unsetenv("STREAMCAST_THREADS"), 0);
  EXPECT_GE(run::resolve_threads(0), 1);
}

}  // namespace
}  // namespace streamcast
