// BENCH_scale — million-node closed-form replay harness.
//
// Runs the structured multi-tree scheme (d = 3, kPreRecorded) over an
// N = 10^3 .. 10^6 curve. At every point the closed-form replay
// (scale::replay_structured via core::run_session) is timed best-of-kReps;
// at points small enough to simulate (N <= kPumpMaxN) the per-slot pump is
// also run, and its serialized QosReport must be byte-identical to the
// replay's.
//
// Emits a JSON report (argv[1], default ./BENCH_scale.json) with a "curve"
// array of per-N stats, which tools/bench_compare.py diffs against the
// checked-in baseline in CI.
//
// Exit is nonzero if any pump mismatch occurs, if a run exceeds its
// declared memory budget, or if the largest-N replay takes longer than
// kMaxReplaySeconds (the "single-digit seconds at N = 10^6" contract).
//
// --max-n=K truncates the curve (CI smoke runs --max-n=100000 to stay
// inside its wall-clock limit; the committed baseline covers the full
// curve).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/streamcast.hpp"

namespace streamcast {
namespace {

using core::Scheme;
using core::SessionConfig;

constexpr sim::NodeKey kCurve[] = {1'000, 10'000, 100'000, 1'000'000};
constexpr int kDegree = 3;
/// Largest N the per-slot pump verifies against the replay.
constexpr sim::NodeKey kPumpMaxN = 100'000;
constexpr int kReps = 3;
constexpr double kMaxReplaySeconds = 10.0;

struct Point {
  sim::NodeKey n = 0;
  double replay_s = 0;
  double pump_s = 0;
  bool pump_checked = false;
  bool pump_match = true;
  std::size_t bytes_peak = 0;
  std::size_t budget_bytes = 0;
  core::RunResult replay;
};

SessionConfig base_config(sim::NodeKey n) {
  return {.scheme = Scheme::kMultiTreeStructured, .n = n, .d = kDegree};
}

Point measure(sim::NodeKey n) {
  Point p;
  p.n = n;

  // Replay timing: force the closed-form path at every N.
  SessionConfig replay_cfg = base_config(n);
  replay_cfg.scale.replay_threshold = 1;
  p.replay_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    core::RunResult result = core::run_session(replay_cfg);
    const auto stop = std::chrono::steady_clock::now();
    p.replay_s = std::min(
        p.replay_s, std::chrono::duration<double>(stop - start).count());
    p.replay = std::move(result);
  }
  p.bytes_peak = p.replay.scale->bytes_peak;
  p.budget_bytes = p.replay.scale->budget_bytes;

  // Pump check: simulate every slot and compare bytes.
  if (n <= kPumpMaxN) {
    SessionConfig pump_cfg = base_config(n);
    pump_cfg.scale.allow_replay = false;
    const auto start = std::chrono::steady_clock::now();
    const core::QosReport pump = core::run_session(pump_cfg).qos;
    const auto stop = std::chrono::steady_clock::now();
    p.pump_s = std::chrono::duration<double>(stop - start).count();
    p.pump_checked = true;
    p.pump_match = core::serialize(pump) == core::serialize(p.replay.qos);
    if (!p.pump_match) {
      std::cerr << "MISMATCH at n=" << n << "\n  pump  : "
                << core::serialize(pump)
                << "  replay: " << core::serialize(p.replay.qos);
    }
  }
  return p;
}

void emit_point(std::ostream& os, const Point& p) {
  const double nodes_per_sec = static_cast<double>(p.n) / p.replay_s;
  os << "    {\"n\": " << p.n << ", \"d\": " << kDegree
     << ", \"replay_s\": " << p.replay_s
     << ", \"replay_nodes_per_sec\": " << nodes_per_sec
     << ", \"pump_checked\": " << (p.pump_checked ? "true" : "false")
     << ", \"pump_s\": " << p.pump_s
     << ", \"bytes_peak\": " << p.bytes_peak
     << ", \"worst_delay\": " << p.replay.qos.worst_delay
     << ", \"max_buffer\": " << p.replay.qos.max_buffer
     << ", \"transmissions\": " << p.replay.qos.transmissions
     << ", \"delay_p99\": " << p.replay.scale->delay.p99
     << ", \"buffer_p99\": " << p.replay.scale->buffer.p99 << "}";
}

}  // namespace
}  // namespace streamcast

int main(int argc, char** argv) {
  using namespace streamcast;
  bench::banner("BENCH_scale",
                "closed-form replay at N up to 10^6, pump-checked to 10^5");

  std::string out_path = "BENCH_scale.json";
  sim::NodeKey max_n = std::numeric_limits<sim::NodeKey>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max-n=", 0) == 0) {
      max_n = static_cast<sim::NodeKey>(std::stoll(arg.substr(8)));
    } else {
      out_path = arg;
    }
  }

  std::vector<Point> points;
  bool all_match = true;
  bool within_budget = true;
  for (const sim::NodeKey n : kCurve) {
    if (n > max_n) continue;
    Point p = measure(n);
    all_match = all_match && p.pump_match;
    within_budget = within_budget && p.bytes_peak <= p.budget_bytes;
    std::cout << "n=" << p.n << "  replay " << p.replay_s << " s ("
              << static_cast<double>(p.n) / p.replay_s << " nodes/s)";
    if (p.pump_checked) {
      std::cout << "  pump " << p.pump_s << " s "
                << (p.pump_match ? "match" : "MISMATCH");
    }
    std::cout << "  peak " << p.bytes_peak << " B\n";
    points.push_back(std::move(p));
  }
  if (points.empty()) {
    std::cerr << "--max-n excluded every curve point\n";
    return 2;
  }

  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const Point& top = points.back();

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"scale\",\n"
      << "  \"hardware_threads\": " << hardware << ",\n"
      << "  \"max_n\": " << top.n << ",\n"
      << "  \"max_n_replay_s\": " << top.replay_s << ",\n"
      << "  \"byte_identical\": " << (all_match ? "true" : "false") << ",\n"
      << "  \"within_budget\": " << (within_budget ? "true" : "false")
      << ",\n"
      << "  \"curve\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    emit_point(out, points[i]);
    out << (i + 1 < points.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  out.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (!all_match) {
    std::cerr << "FAIL: closed-form replay does not byte-match the pump\n";
    return 1;
  }
  if (!within_budget) {
    std::cerr << "FAIL: a run exceeded its declared memory budget\n";
    return 1;
  }
  if (top.replay_s > kMaxReplaySeconds) {
    std::cerr << "FAIL: replay at n=" << top.n << " took " << top.replay_s
              << " s > " << kMaxReplaySeconds << " s\n";
    return 1;
  }
  return 0;
}
