// BENCH_shards — intra-run sharding benchmark (DESIGN.md §14).
//
// Usage: perf_sweep --shards [OUT.json]
//
// Runs ONE large multicluster session serially and sharded across the
// cluster boundary, reporting per-phase wall time (construct / pump /
// merge) and arena allocation counters for both sides. Emits a JSON report
// (OUT.json, default ./BENCH_shards.json).
//
// Exit is nonzero if the sharded QosReport is not byte-identical to the
// serial one, or — with >= 4 shards on >= 4 hardware threads — if the
// single-run speedup falls below 1.3x (the perf-mt CI gate).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/core/shard.hpp"
#include "src/core/streamcast.hpp"
#include "src/run/sweep.hpp"

namespace streamcast {
namespace {

using core::Scheme;

/// Best-of-kReps timing: the minimum wall clock is the least-noisy
/// estimator of the true cost on a shared machine, and the reports are
/// identical across repetitions by the determinism contract.
constexpr int kReps = 5;

/// The benchmark is ONE session, big enough that the per-cluster pump
/// dominates the epoch barrier: 8 clusters of 255 receivers on degree-3
/// trees, T_c = 8 (an 8-slot epoch between barriers).
core::SessionConfig shard_config() {
  core::SessionConfig config;
  config.scheme = Scheme::kMultiTreeGreedy;
  config.n = 255;
  config.d = 3;
  config.clusters = 8;
  config.big_d = 3;
  config.t_c = 8;
  config.audit = false;
  return config;
}

/// Best-of-kReps sharded run at `shards` workers. The report and metrics of
/// the fastest pump repetition are kept (reports are identical across reps
/// by the determinism contract).
core::QosReport time_sharded(const core::SessionConfig& config, int shards,
                             core::ShardMetrics& best) {
  core::ShardOptions opts;
  opts.shards = shards;
  core::QosReport report;
  best.pump_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    core::ShardMetrics m;
    report = core::run_multicluster_sharded(config, opts, &m);
    if (m.pump_s < best.pump_s) best = m;
  }
  return report;
}

double wall_of(const core::ShardMetrics& m) {
  return m.construct_s + m.pump_s + m.merge_s;
}

void emit_shard_section(std::ostream& os, const std::string& name,
                        const core::ShardMetrics& m) {
  os << "  \"" << name << "\": {\n"
     << "    \"shards\": " << m.shards << ",\n"
     << "    \"wall_s\": " << wall_of(m) << ",\n"
     << "    \"construct_s\": " << m.construct_s << ",\n"
     << "    \"pump_s\": " << m.pump_s << ",\n"
     << "    \"merge_s\": " << m.merge_s << ",\n"
     << "    \"transmissions\": " << m.stats.transmissions << ",\n"
     << "    \"deliveries\": " << m.stats.deliveries << ",\n"
     << "    \"arena_allocations\": " << m.stats.arena_allocations << ",\n"
     << "    \"arena_bytes\": " << m.stats.arena_bytes << ",\n"
     << "    \"arena_chunks\": " << m.stats.arena_chunks << ",\n"
     << "    \"ring_relayouts\": " << m.stats.ring_relayouts << ",\n"
     << "    \"seen_relayouts\": " << m.stats.seen_relayouts << "\n"
     << "  }";
}

void print_shard_side(const char* name, const core::ShardMetrics& m) {
  std::cout << name << " (" << m.shards << " shard"
            << (m.shards == 1 ? "" : "s") << ")\n"
            << "  construct        : " << m.construct_s << " s\n"
            << "  pump             : " << m.pump_s << " s\n"
            << "  merge            : " << m.merge_s << " s\n"
            << "  wall             : " << wall_of(m) << " s\n"
            << "  arena allocs     : " << m.stats.arena_allocations << " ("
            << m.stats.arena_bytes << " bytes, " << m.stats.arena_chunks
            << " chunks)\n";
}

/// Serial vs sharded execution of shard_config(),
/// best-of-kReps each, byte-identity always enforced, the 1.3x speedup
/// gate only where it is measurable (>= 4 shards on >= 4 cores).
int run_shard_bench(const std::string& out_path) {
  const core::SessionConfig config = shard_config();
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const int shards =
      std::min(config.clusters, run::resolve_threads(0));

  core::ShardMetrics serial;
  core::ShardMetrics sharded;
  // Warm-up: first-touch allocation and page-fault noise stays out of both.
  (void)time_sharded(config, 1, serial);
  const core::QosReport serial_report = time_sharded(config, 1, serial);
  const core::QosReport sharded_report = time_sharded(config, shards, sharded);

  const bool byte_identical =
      core::serialize(serial_report) == core::serialize(sharded_report);
  const double speedup = serial.pump_s / sharded.pump_s;

  std::cout << "session           : " << core::scheme_label(config.scheme, 8)
            << " n=" << config.n << " d=" << config.d
            << " T_c=" << config.t_c << "\n"
            << "hardware threads  : " << hardware << "\n";
  print_shard_side("serial", serial);
  print_shard_side("sharded", sharded);
  std::cout << "pump speedup      : " << speedup << "x\n"
            << "byte identical    : " << (byte_identical ? "yes" : "NO")
            << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"mode\": \"shards\",\n"
      << "  \"scheme\": \"" << core::scheme_name(config.scheme) << "\",\n"
      << "  \"clusters\": " << config.clusters << ",\n"
      << "  \"n\": " << config.n << ",\n"
      << "  \"d\": " << config.d << ",\n"
      << "  \"t_c\": " << config.t_c << ",\n"
      << "  \"hardware_threads\": " << hardware << ",\n"
      << "  \"byte_identical\": " << (byte_identical ? "true" : "false")
      << ",\n";
  emit_shard_section(out, "serial", serial);
  out << ",\n";
  emit_shard_section(out, "sharded", sharded);
  out << ",\n  \"speedup\": " << speedup << "\n}\n";
  out.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (!byte_identical) {
    std::cerr << "FAIL: sharded report differs from serial\n";
    return 1;
  }
  if (shards >= 4 && hardware >= 4 && speedup < 1.3) {
    std::cerr << "FAIL: sharded speedup " << speedup << "x < 1.3x at "
              << shards << " shards\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace streamcast

int main(int argc, char** argv) {
  using namespace streamcast;
  bench::banner("BENCH_shards", "one multicluster run, serial vs sharded");
  // --shards names the one mode left; it stays accepted so the documented
  // command line keeps working.
  std::string out_path = "BENCH_shards.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--shards") out_path = arg;
  }
  return run_shard_bench(out_path);
}
