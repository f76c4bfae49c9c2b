// BENCH_engine — engine hot-path and parallel-runner throughput harness.
//
// Runs the canonical cross-scheme grid twice: once serially (threads = 1)
// and once on the parallel sweep runner (resolve_threads(0), i.e. the
// STREAMCAST_THREADS override or hardware concurrency), timing both with
// steady_clock. Emits a JSON report (argv[1], default ./BENCH_engine.json)
// with slots/sec, deliveries/sec, wall time, and speedup, which
// tools/bench_compare.py diffs against the checked-in baseline in CI.
//
// Exit is nonzero if the parallel run's rendered reports are not
// byte-identical to serial, or — on machines with >= 8 hardware threads
// running >= 8 workers — if the parallel speedup falls below 3x. The
// byte-identical check is the determinism contract; the speedup gate is
// skipped on small machines where it is physically unmeasurable.
//
// --shards switches to the intra-run sharding benchmark (DESIGN.md §14):
// ONE large multicluster session executed serially and sharded across the
// cluster boundary, reporting per-phase wall time (construct / pump /
// merge) and arena allocation counters for both sides. Exit is nonzero if
// the sharded QosReport is not byte-identical to the serial one, or — with
// >= 4 shards on >= 4 hardware threads — if the single-run speedup falls
// below 1.3x (the perf-mt CI gate).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/shard.hpp"
#include "src/core/streamcast.hpp"
#include "src/run/sweep.hpp"

namespace streamcast {
namespace {

using core::Scheme;
using core::SessionConfig;

/// One canonical grid point, keyed by the registry's canonical scheme name
/// (core::parse_scheme resolves it, so a typo here fails loudly at startup
/// instead of silently benchmarking the wrong scheme).
struct GridPoint {
  const char* scheme;
  sim::NodeKey n;
  int d;
};

/// The canonical grid: every registered scheme at sizes large enough that
/// the engine hot path (slot stepping, duplicate filtering, delivery ring)
/// dominates. Degree-sweep schemes get two d values per size.
constexpr GridPoint kGridPoints[] = {
    {"multi-tree/structured", 63, 2},  {"multi-tree/structured", 63, 3},
    {"multi-tree/structured", 255, 2}, {"multi-tree/structured", 255, 3},
    {"multi-tree/structured", 511, 2}, {"multi-tree/structured", 511, 3},
    {"multi-tree/greedy", 63, 2},      {"multi-tree/greedy", 63, 3},
    {"multi-tree/greedy", 255, 2},     {"multi-tree/greedy", 255, 3},
    {"multi-tree/greedy", 511, 2},     {"multi-tree/greedy", 511, 3},
    {"hypercube", 63, 1},              {"hypercube", 255, 1},
    {"hypercube", 1023, 1},            {"hypercube/grouped", 90, 2},
    {"hypercube/grouped", 90, 3},      {"hypercube/grouped", 252, 2},
    {"hypercube/grouped", 252, 3},     {"chain", 200, 1},
    {"chain", 400, 1},                 {"single-tree", 255, 2},
    {"single-tree", 1023, 2},
};

std::vector<SessionConfig> canonical_grid() {
  std::vector<SessionConfig> tasks;
  for (const GridPoint& p : kGridPoints) {
    tasks.push_back(
        {.scheme = core::parse_scheme(p.scheme), .n = p.n, .d = p.d});
  }
  // Seeded lossy tasks keep the recovery path in the measured mix.
  for (const double rate : {0.02, 0.05}) {
    SessionConfig lossy{.scheme = Scheme::kMultiTreeGreedy, .n = 127, .d = 2};
    lossy.loss.model = loss::ErasureKind::kBernoulli;
    lossy.loss.rate = rate;
    lossy.loss.seed = 0x5eed;
    tasks.push_back(lossy);
  }
  return tasks;
}

/// Parses the --schemes=a,b,c filter through core::parse_scheme; an unknown
/// name aborts with the registry's canonical list.
std::vector<Scheme> parse_scheme_filter(const std::string& csv) {
  std::vector<Scheme> schemes;
  std::istringstream in(csv);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (name.empty()) continue;
    try {
      schemes.push_back(core::parse_scheme(name));
    } catch (const std::invalid_argument&) {
      std::cerr << "unknown scheme: " << name << "\nvalid names:";
      for (const auto& desc : scheme::all()) std::cerr << ' ' << desc.name;
      std::cerr << "\n";
      std::exit(2);
    }
  }
  return schemes;
}

std::vector<SessionConfig> filter_grid(std::vector<SessionConfig> tasks,
                                       const std::vector<Scheme>& keep) {
  if (keep.empty()) return tasks;
  std::erase_if(tasks, [&](const SessionConfig& cfg) {
    return std::find(keep.begin(), keep.end(), cfg.scheme) == keep.end();
  });
  return tasks;
}

/// Distinct canonical scheme names present in the grid, in grid order.
std::vector<std::string> grid_schemes(
    const std::vector<SessionConfig>& tasks) {
  std::vector<std::string> names;
  for (const SessionConfig& cfg : tasks) {
    const std::string name = core::scheme_name(cfg.scheme);
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  return names;
}

std::string render(const std::vector<run::TaskResult>& results) {
  std::ostringstream os;
  for (const run::TaskResult& r : results) {
    os << core::serialize(r) << "\n";
  }
  return os.str();
}

struct Measurement {
  double wall_s = 0;
  std::uint64_t slots = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;  // transmissions that survived the link
  std::vector<run::TaskResult> results;
};

/// Best-of-kReps timing: the minimum wall clock is the least-noisy
/// estimator of the true cost on a shared machine, and the report totals
/// are identical across repetitions by the determinism contract.
constexpr int kReps = 5;

double time_once(const std::vector<SessionConfig>& tasks, int threads,
                 Measurement& m) {
  const auto start = std::chrono::steady_clock::now();
  auto results = run::run_sweep(tasks, {.threads = threads});
  const auto stop = std::chrono::steady_clock::now();
  run::require_all(results);
  m.results = std::move(results);
  return std::chrono::duration<double>(stop - start).count();
}

void finalize(Measurement& m) {
  m.slots = 0;
  m.transmissions = 0;
  m.deliveries = 0;
  for (const run::TaskResult& r : m.results) {
    m.slots += static_cast<std::uint64_t>(r.qos.slots_simulated);
    m.transmissions += static_cast<std::uint64_t>(r.qos.transmissions);
    m.deliveries +=
        static_cast<std::uint64_t>(r.qos.transmissions - r.qos.drops);
  }
}

/// Times serial and parallel back-to-back inside each repetition so that
/// CPU frequency drift on shared machines biases both sides equally
/// instead of whichever happened to run later.
void run_grids(const std::vector<SessionConfig>& tasks, int parallel_threads,
               Measurement& serial, Measurement& parallel) {
  serial.wall_s = std::numeric_limits<double>::infinity();
  parallel.wall_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    serial.wall_s = std::min(serial.wall_s, time_once(tasks, 1, serial));
    parallel.wall_s =
        std::min(parallel.wall_s, time_once(tasks, parallel_threads, parallel));
  }
  finalize(serial);
  finalize(parallel);
}

// --- intra-run sharding benchmark (--shards; DESIGN.md §14) ----------------

/// The sharded grid is ONE session, big enough that the per-cluster pump
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

/// The --shards mode: serial vs sharded execution of shard_config(),
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

void emit_section(std::ostream& os, const std::string& name,
                  const Measurement& m, int threads) {
  os << "  \"" << name << "\": {\n"
     << "    \"threads\": " << threads << ",\n"
     << "    \"wall_s\": " << m.wall_s << ",\n"
     << "    \"slots\": " << m.slots << ",\n"
     << "    \"transmissions\": " << m.transmissions << ",\n"
     << "    \"deliveries\": " << m.deliveries << ",\n"
     << "    \"slots_per_sec\": " << static_cast<double>(m.slots) / m.wall_s
     << ",\n"
     << "    \"deliveries_per_sec\": "
     << static_cast<double>(m.deliveries) / m.wall_s << "\n"
     << "  }";
}

}  // namespace
}  // namespace streamcast

int main(int argc, char** argv) {
  using namespace streamcast;
  bench::banner("BENCH_engine",
                "engine hot-path + parallel sweep runner throughput");

  std::string out_path;
  std::vector<Scheme> keep;
  bool shard_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--schemes=", 0) == 0) {
      keep = parse_scheme_filter(arg.substr(10));
    } else if (arg == "--schemes" && i + 1 < argc) {
      keep = parse_scheme_filter(argv[++i]);
    } else if (arg == "--shards") {
      shard_mode = true;
    } else {
      out_path = arg;
    }
  }
  if (shard_mode) {
    return run_shard_bench(out_path.empty() ? "BENCH_shards.json" : out_path);
  }
  if (out_path.empty()) out_path = "BENCH_engine.json";
  const auto tasks = filter_grid(canonical_grid(), keep);
  if (tasks.empty()) {
    std::cerr << "scheme filter matched no grid tasks\n";
    return 2;
  }
  const int parallel_threads = run::resolve_threads(0);
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());

  Measurement serial;
  Measurement parallel;
  // Warm-up pass so first-touch allocation noise stays out of both timings.
  (void)time_once(tasks, 1, serial);
  run_grids(tasks, parallel_threads, serial, parallel);
  const bool byte_identical =
      render(serial.results) == render(parallel.results);
  const double speedup = serial.wall_s / parallel.wall_s;

  std::cout << "grid tasks        : " << tasks.size() << "\n"
            << "hardware threads  : " << hardware << "\n"
            << "serial wall       : " << serial.wall_s << " s\n"
            << "serial slots/sec  : "
            << static_cast<double>(serial.slots) / serial.wall_s << "\n"
            << "parallel threads  : " << parallel_threads << "\n"
            << "parallel wall     : " << parallel.wall_s << " s\n"
            << "speedup           : " << speedup << "x\n"
            << "byte identical    : " << (byte_identical ? "yes" : "NO")
            << "\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"grid_tasks\": " << tasks.size() << ",\n"
      << "  \"filtered\": " << (keep.empty() ? "false" : "true") << ",\n"
      << "  \"schemes\": [";
  const auto names = grid_schemes(tasks);
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << names[i] << '"';
  }
  out << "],\n"
      << "  \"hardware_threads\": " << hardware << ",\n"
      << "  \"byte_identical\": " << (byte_identical ? "true" : "false")
      << ",\n";
  emit_section(out, "serial", serial, 1);
  out << ",\n";
  emit_section(out, "parallel", parallel, parallel_threads);
  out << ",\n  \"speedup\": " << speedup << "\n}\n";
  out.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (!byte_identical) {
    std::cerr << "FAIL: parallel reports differ from serial\n";
    return 1;
  }
  // The 3x gate only means something when 8+ workers actually ran on 8+
  // cores; a laptop CI shard or a 1-core container cannot measure it.
  if (parallel_threads >= 8 && hardware >= 8 && speedup < 3.0) {
    std::cerr << "FAIL: speedup " << speedup << "x < 3x at "
              << parallel_threads << " threads\n";
    return 1;
  }
  return 0;
}
