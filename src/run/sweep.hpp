// Deterministic parallel sweep runner (DESIGN.md §8).
//
// Every paper artifact and the audit grid re-run the slot engine over large
// (scheme, N, d, T_c) grids. The tasks are embarrassingly parallel — one
// StreamingSession per grid point, no shared mutable state — so the runner
// executes them on a fixed-size std::jthread pool pulling indices from a
// shared atomic counter (work stealing over the task list) and merges the
// results in submission order. The merged output is byte-identical to a
// serial run at any thread count: each worker writes only its own task's
// result slot, every session owns its engine/PRNG/topology outright, and
// nothing about the output depends on scheduling order.
//
// Thread count: SweepOptions::threads, else the STREAMCAST_THREADS
// environment variable, else std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/core/session.hpp"

namespace streamcast::run {

struct SweepOptions {
  /// Worker threads; 0 resolves via resolve_threads(0).
  int threads = 0;
};

/// Threads a request resolves to: `requested` if positive, else the
/// STREAMCAST_THREADS environment variable if it parses to a positive
/// integer, else std::thread::hardware_concurrency() (minimum 1).
int resolve_threads(int requested);

/// Invokes body(i) for every i in [0, count). With one resolved thread (or
/// count <= 1) the loop runs inline and the first exception propagates
/// immediately; otherwise a fixed pool of std::jthread workers drains a
/// shared atomic index queue, exceptions are captured per index, and after
/// the pool joins the lowest-index exception is rethrown (later indices may
/// already have run). Bodies must confine writes to index-owned state —
/// tools/lint_ast.py flags default-by-reference captures here.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  SweepOptions options = {});

/// Outcome of one sweep task, in submission order.
struct TaskResult {
  core::QosReport qos;
  /// Populated when the task's LossConfig is active (run_lossy path).
  core::LossSummary loss;
  /// Set instead of the reports if the session threw.
  std::exception_ptr error;
};

/// Runs one StreamingSession per config — run_lossy() when the task's loss
/// model is active, run() otherwise — and returns results indexed by task.
std::vector<TaskResult> run_sweep(const std::vector<core::SessionConfig>& tasks,
                                  SweepOptions options = {});

/// Rethrows the first captured error in submission order, if any.
void require_all(const std::vector<TaskResult>& results);

}  // namespace streamcast::run
