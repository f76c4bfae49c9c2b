// session_mix — the repository's end-to-end benchmark.
//
// One closed-loop client calls StreamingSession back to back, serially, over
// a session list drawn from --seed (see mix.cpp for the workloads). The run
// repeats timed passes over the list until --seconds have elapsed and
// reports, with tracing off:
//
//   wall_s          median host time of one pass
//   session_ms.p50  median per-session host time (construct to report)
//   session_ms.p90  90th percentile, over at least 100 timed sessions
//   setup_s         process start to the first timed session
//   session_heap_mb.mean
//                   mean over sessions of the most heap a session holds at
//                   once, from one more, untimed pass with heap tracking on
//
// --trace 1 instead alternates untraced and traced passes (tracer.hpp) and
// reports the per-layer metrics. Every report is checked (mix.hpp: check);
// on the default seed every report must also match its pinned digest, and
// every traced report must match its untraced twin byte for byte.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/alloc.hpp"
#include "perfbench/mix.hpp"
#include "perfbench/tracer.hpp"
#include "src/core/config.hpp"

// Runtime markers of the sanitizer runtimes: non-null only when linked in.
extern "C" void __asan_init() __attribute__((weak));
extern "C" void __tsan_init() __attribute__((weak));
extern "C" void __ubsan_handle_add_overflow() __attribute__((weak));

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// The seed the per-session digests are pinned for.
constexpr std::uint64_t kDefaultSeed = 1;
/// p90 needs at least ten sessions beyond it.
constexpr std::size_t kMinTimed = 100;

const Clock::time_point g_static_init = Clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::int64_t spawn_ns = -1;
  std::string digests;
  std::string pin;
  std::string spans;
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--spawn-ns") a.spawn_ns = std::stoll(v);
    else if (flag == "--digests") a.digests = v;
    else if (flag == "--pin") a.pin = v;
    else if (flag == "--spans") a.spans = v;
    else if (flag == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Refuses builds whose timings mean nothing: unoptimised, assertions on,
/// sanitized, or the audit preset (auditor on every session).
std::string build_problem() {
#ifndef __OPTIMIZE__
  return "unoptimised build";
#endif
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized build";
#endif
  if (__asan_init != nullptr || __tsan_init != nullptr ||
      __ubsan_handle_add_overflow != nullptr) {
    return "sanitizer runtime linked";
  }
  if (streamcast::core::kAuditDefault) {
    return "built with STREAMCAST_AUDIT_DEFAULT (auditor on every session)";
  }
  return {};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Peak resident set size of this process image: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is no use here: exec folds the
/// parent's high-water mark into it, so under a Python launcher every small
/// workload read the launcher's ~19 MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Checks outcomes and tallies failures; the first few are printed.
class Verdicts {
 public:
  explicit Verdicts(std::vector<std::uint64_t> pinned)
      : pinned_(std::move(pinned)) {}

  /// First sight of session `i` (first pass): invariant checks, then the
  /// pinned digest when there is one. Later sights must render the same.
  void record(std::size_t i, const Session& s, const Outcome& o) {
    ++attempted_;
    if (first_.size() <= i) first_.resize(i + 1);
    std::string problem;
    if (first_[i].empty()) {
      problem = check(s, o);
      if (problem.empty() && !pinned_.empty() &&
          (i >= pinned_.size() || pinned_[i] != digest(o.rendered))) {
        problem = "report does not match the pinned digest";
      }
      first_[i] = o.rendered;
    } else if (first_[i] != o.rendered) {
      problem = "report differs from the session's first run";
    }
    if (!problem.empty()) fail(i, s, problem);
  }

  void fail(std::size_t i, const Session& s, const std::string& problem) {
    ++failed_;
    if (failed_ <= 5) {
      std::cout << "FAIL session " << i << " (" << describe(s)
                << "): " << problem << "\n";
    }
  }

  void attempt() { ++attempted_; }
  /// The session's first rendering; empty when it never ran cleanly.
  std::string first(std::size_t i) const {
    return i < first_.size() ? first_[i] : std::string();
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::vector<std::uint64_t> pinned_;
  std::vector<std::string> first_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::vector<std::uint64_t> load_digests(const std::string& path) {
  std::vector<std::uint64_t> out;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("no pinned digests at " + path);
  std::string hex;
  while (in >> hex) out.push_back(std::stoull(hex, nullptr, 16));
  return out;
}

/// One untraced pass: per-session host times (ms) and outcomes.
struct Pass {
  double wall_s = 0;
  std::vector<double> session_ms;
};

/// Per-class session times (ms) pooled over passes.
using ClassTimes = std::vector<std::vector<double>>;

Pass timed_pass(const Workload& w, Verdicts& verdicts, ClassTimes& class_ms) {
  Pass pass;
  pass.session_ms.reserve(w.sessions.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < w.sessions.size(); ++i) {
    const Session& s = w.sessions[i];
    const Clock::time_point t0 = Clock::now();
    try {
      Outcome o = run_session(s);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      pass.session_ms.push_back(ms);
      class_ms[static_cast<std::size_t>(s.cls)].push_back(ms);
      o.rendered = render(s, o);
      verdicts.record(i, s, o);
    } catch (const std::exception& e) {
      verdicts.attempt();
      verdicts.fail(i, s, std::string("threw: ") + e.what());
    }
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

/// The untimed memory pass: each session once more, with heap tracking on.
/// Returns the most heap (MiB) each session held at once, over what was
/// live when it started; the reports are checked like any other pass's.
std::vector<double> heap_pass(const Workload& w, Verdicts& verdicts) {
  std::vector<double> mb;
  mb.reserve(w.sessions.size());
  track_heap(true);
  for (std::size_t i = 0; i < w.sessions.size(); ++i) {
    const Session& s = w.sessions[i];
    try {
      const std::int64_t base = reset_heap_peak();
      Outcome o = run_session(s);
      mb.push_back(static_cast<double>(heap_peak() - base) / (1 << 20));
      verdicts.record(i, s, o);
    } catch (const std::exception& e) {
      verdicts.attempt();
      verdicts.fail(i, s, std::string("threw: ") + e.what());
    }
  }
  track_heap(false);
  return mb;
}

void print_classes(const Workload& w, const ClassTimes& class_ms,
                   int passes) {
  std::vector<int> count(w.classes.size(), 0);
  for (const Session& s : w.sessions) ++count[static_cast<std::size_t>(s.cls)];
  std::vector<double> sum(w.classes.size(), 0.0);
  double total = 0;
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    for (const double ms : class_ms[c]) sum[c] += ms;
    total += sum[c];
  }
  std::printf("  %-34s %9s %12s %7s %10s %10s %10s\n", "class", "sessions",
              "ms/pass", "share", "min ms", "p50 ms", "max ms");
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    const std::vector<double>& v = class_ms[c];
    std::printf("  %-34s %9d %12.1f %6.1f%% %10.1f %10.1f %10.1f\n",
                w.classes[c].c_str(), count[c], sum[c] / passes,
                total > 0 ? 100 * sum[c] / total : 0,
                v.empty() ? 0 : *std::min_element(v.begin(), v.end()),
                median(v),
                v.empty() ? 0 : *std::max_element(v.begin(), v.end()));
  }
}

/// Cost of one empty span, with the no-allocation-inside-a-span check.
double calibrate_span(bool& allocated) {
  constexpr int kSpans = 200'000;
  Tracer tracer(1, 1);
  const std::uint64_t before = allocations();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span span(tracer, kEmpty);
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      kSpans;
  allocated = allocations() != before;
  return ns;
}

/// Per-layer metrics of one traced pass (tracing's own cost aside).
std::map<std::string, std::pair<double, std::string>> layer_metrics(
    const Tracer& tracer, const LayerCounts& k) {
  const auto& t = tracer.totals();
  auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const LayerTotals& run = t[kRun];
  std::int64_t protocol_calls = 0;
  std::int64_t protocol_allocs = 0;
  for (int l = kProtoMultitree; l <= kProtoDyntree; ++l) {
    protocol_calls += t[static_cast<std::size_t>(l)].calls;
    protocol_allocs += t[static_cast<std::size_t>(l)].allocs;
  }
  std::int64_t recovery_self = 0;
  std::int64_t recovery_allocs = 0;
  for (int l = kRecoveryNack; l <= kRecoveryCode; ++l) {
    recovery_self += t[static_cast<std::size_t>(l)].self_ns;
    recovery_allocs += t[static_cast<std::size_t>(l)].self_allocs;
  }
  std::map<std::string, std::pair<double, std::string>> m;
  m["scheme.build_ms"] = {ms(t[kBuild].total_ns), "ms"};
  m["scheme.build_allocs"] = {static_cast<double>(t[kBuild].allocs), "count"};
  m["multitree.protocol_ms"] = {ms(t[kProtoMultitree].self_ns), "ms"};
  m["hypercube.protocol_ms"] = {ms(t[kProtoHypercube].self_ns), "ms"};
  m["baseline.protocol_ms"] = {ms(t[kProtoBaseline].self_ns), "ms"};
  m["rrd.protocol_ms"] = {ms(t[kProtoRrd].self_ns), "ms"};
  m["dyntree.protocol_ms"] = {ms(t[kProtoDyntree].self_ns), "ms"};
  m["protocol.calls"] = {static_cast<double>(protocol_calls), "count"};
  m["protocol.allocs"] = {static_cast<double>(protocol_allocs), "count"};
  m["pump.self_ms"] = {ms(run.self_ns), "ms"};
  m["pump.ns_per_tx"] = {
      ratio(static_cast<double>(run.self_ns),
            static_cast<double>(k.pipeline_transmissions)),
      "ns"};
  m["pipeline.construct_ms"] = {ms(t[kConstruct].total_ns), "ms"};
  m["pipeline.run_allocs"] = {static_cast<double>(run.allocs), "count"};
  m["engine.transmissions"] = {static_cast<double>(k.transmissions), "count"};
  m["engine.deliveries"] = {static_cast<double>(k.deliveries), "count"};
  m["engine.slots"] = {static_cast<double>(k.slots), "count"};
  m["engine.arena_chunks"] = {static_cast<double>(k.arena_chunks), "count"};
  m["engine.ring_relayouts"] = {static_cast<double>(k.ring_relayouts), "count"};
  m["engine.seen_relayouts"] = {static_cast<double>(k.seen_relayouts), "count"};
  m["core.aggregate_ms"] = {ms(t[kAggregate].total_ns), "ms"};
  m["session.allocs"] = {static_cast<double>(t[kSession].allocs), "count"};
  m["loss.recovery_self_ms"] = {ms(recovery_self), "ms"};
  m["loss.recovery_self_ms.nack"] = {ms(t[kRecoveryNack].self_ns), "ms"};
  m["loss.recovery_self_ms.xor-parity"] = {ms(t[kRecoveryXor].self_ns), "ms"};
  m["loss.recovery_self_ms.streaming-code"] = {ms(t[kRecoveryCode].self_ns),
                                               "ms"};
  m["loss.recovery_allocs"] = {static_cast<double>(recovery_allocs), "count"};
  m["loss.model_ms"] = {ms(t[kModel].total_ns), "ms"};
  m["loss.model_calls"] = {static_cast<double>(t[kModel].calls), "count"};
  m["loss.drops"] = {static_cast<double>(k.drops), "count"};
  m["loss.nacks"] = {static_cast<double>(k.nacks), "count"};
  m["loss.retransmissions"] = {static_cast<double>(k.retransmissions), "count"};
  m["loss.parity"] = {static_cast<double>(k.parity), "count"};
  m["loss.suppressed"] = {static_cast<double>(k.suppressed), "count"};
  m["loss.fec_decodes"] = {static_cast<double>(k.fec_decodes), "count"};
  m["loss.redundancy_overhead"] = {
      ratio(static_cast<double>(k.retransmissions + k.parity),
            static_cast<double>(k.data_transmissions)),
      "ratio"};
  m["loss.drain_slots_frac"] = {ratio(static_cast<double>(k.drain_slots),
                                      static_cast<double>(k.lossy_slots)),
                                "ratio"};
  m["loss.drain_cap_hits"] = {static_cast<double>(k.drain_cap_hits), "count"};
  m["policy.startup_fold_ms"] = {ms(t[kStartupFold].total_ns), "ms"};
  m["shard.construct_ms"] = {k.shard_construct_s * 1e3, "ms"};
  m["shard.pump_ms"] = {k.shard_pump_s * 1e3, "ms"};
  m["shard.merge_ms"] = {k.shard_merge_s * 1e3, "ms"};
  m["shard.efficiency"] = {ratio(k.serial_pump_s, k.sharded_pump_s), "ratio"};
  m["scale.replay_ms"] = {ms(t[kReplay].total_ns), "ms"};
  m["scale.replay_nodes_per_s"] = {
      ratio(static_cast<double>(k.replay_nodes),
            static_cast<double>(t[kReplay].total_ns) / 1e9),
      "1/s"};
  m["scale.bytes_peak"] = {static_cast<double>(k.bytes_peak), "B"};
  return m;
}

void print_layers(const Tracer& tracer) {
  std::printf("  %-30s %12s %12s %12s %12s\n", "layer", "self ms", "total ms",
              "calls", "self allocs");
  for (int l = 0; l < kLayerCount; ++l) {
    if (l == kEmpty) continue;
    const LayerTotals& t = tracer.totals()[static_cast<std::size_t>(l)];
    std::printf("  %-30s %12.2f %12.2f %12lld %12lld\n",
                layer_name(static_cast<Layer>(l)),
                static_cast<double>(t.self_ns) / 1e6,
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<long long>(t.calls),
                static_cast<long long>(t.self_allocs));
  }
}

int run(const Args& args) {
  const Clock::time_point process_start =
      args.spawn_ns >= 0 ? Clock::time_point(std::chrono::nanoseconds(args.spawn_ns))
                         : g_static_init;
  const std::string problem = build_problem();
  if (!problem.empty()) {
    std::cerr << "session_mix: refusing to time this build: " << problem
              << "\n";
    return 2;
  }

  // --- set-up: inputs from the seed, one warm-up session per class --------
  const Workload w = make_workload(args.workload, args.seed);
  Verdicts warm_verdicts({});
  for (std::size_t i = 0; i < w.warmups.size(); ++i) {
    try {
      Outcome o = run_session(w.warmups[i]);
      o.rendered = render(w.warmups[i], o);
      warm_verdicts.record(i, w.warmups[i], o);
    } catch (const std::exception& e) {
      warm_verdicts.attempt();
      warm_verdicts.fail(i, w.warmups[i], std::string("threw: ") + e.what());
    }
  }
  const double setup_s = seconds_since(process_start);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.9f, \"failed\": %lld}\n", setup_s,
                static_cast<long long>(warm_verdicts.failed()));
    return warm_verdicts.failed() == 0 ? 0 : 1;
  }

  std::printf("session_mix workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host nproc=%u cpu=\"%s\" commit=%s build=%s compiler=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              args.commit.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__);

  if (!args.pin.empty() && args.seed != kDefaultSeed) {
    throw std::invalid_argument("digests are pinned for seed " +
                                std::to_string(kDefaultSeed) + " only");
  }
  std::vector<std::uint64_t> pinned;
  if (args.seed == kDefaultSeed && args.pin.empty()) {
    pinned = load_digests(args.digests);
  }
  Verdicts verdicts(pinned);
  ClassTimes class_ms(w.classes.size());
  const Clock::time_point measure_start = Clock::now();

  if (!args.trace) {
    std::vector<double> pass_s;
    std::vector<double> session_ms;
    while (pass_s.empty() || seconds_since(measure_start) < args.seconds ||
           session_ms.size() < kMinTimed) {
      Pass p = timed_pass(w, verdicts, class_ms);
      pass_s.push_back(p.wall_s);
      session_ms.insert(session_ms.end(), p.session_ms.begin(),
                        p.session_ms.end());
    }
    if (!args.pin.empty()) {
      std::ofstream out(args.pin);
      for (std::size_t i = 0; i < w.sessions.size(); ++i) {
        char hex[20];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(digest(verdicts.first(i))));
        out << hex << "\n";
      }
    }
    const std::vector<double> heap_mb = heap_pass(w, verdicts);
    const double rss = peak_rss_mb();
    const int passes = static_cast<int>(pass_s.size());
    std::printf("sessions %zu per pass, %d passes, %zu timed, %lld failed, "
                "%zu warm-ups (%lld failed)\n",
                w.sessions.size(), passes, session_ms.size(),
                static_cast<long long>(verdicts.failed()), w.warmups.size(),
                static_cast<long long>(warm_verdicts.failed()));
    print_classes(w, class_ms, passes);
    std::printf("  pass s:");
    for (const double p : pass_s) std::printf(" %.3f", p);
    std::printf("\n");
    const std::vector<Metric> metrics = {
        {"wall_s", median(pass_s), "s"},
        {"session_ms.p50", median(session_ms), "ms"},
        {"session_ms.p90", percentile(session_ms, 0.9), "ms"},
        {"setup_s", setup_s, "s"},
        {"session_heap_mb.mean", mean(heap_mb), "MB"},
    };
    std::printf("  wall_s          %10.4f s   (median of %d passes)\n",
                metrics[0].value, passes);
    std::printf("  session_ms.p50  %10.4f ms  (%zu sessions)\n",
                metrics[1].value, session_ms.size());
    std::printf("  session_ms.p90  %10.4f ms  (%zu sessions, %zu beyond)\n",
                metrics[2].value, session_ms.size(), session_ms.size() / 10);
    std::printf("  setup_s         %10.4f s   (%zu warm-up sessions)\n",
                metrics[3].value, w.warmups.size());
    std::printf("  session_heap_mb.mean %5.4f MB  (%zu sessions; "
                "max %.4f MB)\n",
                metrics[4].value, heap_mb.size(), percentile(heap_mb, 1.0));
    std::printf("  peak_rss_mb     %10.1f MB  (VmHWM; printed, not bounded)\n",
                rss);
    const std::int64_t failed = verdicts.failed() + warm_verdicts.failed();
    print_result(failed == 0, verdicts.attempted() + warm_verdicts.attempted(),
                 failed, metrics);
    return failed == 0 ? 0 : 1;
  }

  // --- traced run: untraced and traced passes, alternating ----------------
  bool span_allocated = false;
  count_allocations(true);
  const double span_ns = calibrate_span(span_allocated);
  count_allocations(false);
  if (span_allocated) {
    std::cout << "FAIL: the tracer allocated inside an empty span\n";
  }
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::map<std::string, std::pair<double, std::string>>> per_pass;
  bool overflow = false;
  std::optional<Tracer> first_tracer;
  while (traced_s.empty() || seconds_since(measure_start) < args.seconds) {
    Pass p = timed_pass(w, verdicts, class_ms);
    double untraced = 0;
    for (const double ms : p.session_ms) untraced += ms / 1e3;
    untraced_s.push_back(untraced);

    Tracer tracer(w.sessions.size() * 8, w.sessions.size());
    LayerCounts counts;
    count_allocations(true);
    for (std::size_t i = 0; i < w.sessions.size(); ++i) {
      const Session& s = w.sessions[i];
      verdicts.attempt();
      tracer.start_session(static_cast<int>(i));
      try {
        Outcome o = run_traced(s, tracer, counts);
        tracer.finish_session();
        o.rendered = render(s, o);
        if (o.rendered != verdicts.first(i)) {
          verdicts.fail(i, s, "traced report differs from the untraced one");
        }
      } catch (const std::exception& e) {
        tracer.finish_session();
        verdicts.fail(i, s, std::string("traced run threw: ") + e.what());
      }
    }
    count_allocations(false);
    const double traced =
        static_cast<double>(tracer.totals()[kSession].total_ns) / 1e9;
    traced_s.push_back(traced);
    overflow = overflow || tracer.overflowed();
    per_pass.push_back(layer_metrics(tracer, counts));
    if (!first_tracer) first_tracer.emplace(std::move(tracer));
  }
  const double overhead = median(traced_s) / median(untraced_s) - 1;
  if (overflow) std::cout << "FAIL: tracer ran out of reserved records\n";
  if (!args.spans.empty()) first_tracer->write(args.spans);

  std::printf("passes %zu untraced + %zu traced, %zu sessions per pass, "
              "%lld failed\n",
              untraced_s.size(), traced_s.size(), w.sessions.size(),
              static_cast<long long>(verdicts.failed()));
  print_layers(*first_tracer);
  std::vector<Metric> metrics;
  for (const auto& [name, first] : per_pass.front()) {
    std::vector<double> values;
    for (const auto& m : per_pass) values.push_back(m.at(name).first);
    metrics.push_back({name, median(values), first.second});
  }
  metrics.push_back({"trace.overhead_frac", overhead, "ratio"});
  metrics.push_back({"trace.span_ns", span_ns, "ns"});
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::int64_t failed = verdicts.failed() + warm_verdicts.failed() +
                              (span_allocated ? 1 : 0) + (overflow ? 1 : 0);
  print_result(failed == 0, verdicts.attempted() + warm_verdicts.attempted(),
               failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "session_mix: " << e.what() << "\n";
    return 2;
  }
}
