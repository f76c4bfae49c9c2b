// Slot-synchronous simulation engine.
// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// The engine owns time. Each slot it (1) collects the protocol's outgoing
// transmissions, charging them against per-node send capacity, and (2)
// completes every transmission whose arrival slot is the current slot, in
// three passes over that slot's arrivals (DESIGN.md §8): charge receive
// capacity and check duplicates for all of them, hand them to each attached
// observer (metrics recorders, traces) as one span, in attach order, then
// report each to the protocol, in ring order.
//
// Phase-2 contract: every consumer sees the slot's arrivals in ring order;
// only the interleaving of different consumers within one slot is left
// open, and no report depends on it. A capacity or duplicate violation
// throws before any consumer sees the slot. Handing the delay recorder the
// whole slot lets it prefetch the arrival cells of arrivals a few ahead;
// above ~10^4 receivers those per-node rows no longer fit in L2, and a
// virtual call per arrival serialized their misses. At N = 64,000, d = 3
// the delay and neighbor recorders went from ~450 to ~200 ms of a pump,
// for ~10 ms more engine time spent re-reading the bucket.
//
// Constraint violations — over-capacity sends or receives, self-sends,
// out-of-range keys, duplicate deliveries — throw ProtocolViolation. The
// paper's correctness proofs (appendix) state exactly these properties; the
// engine turns them into machine-checked invariants for every scheme.
//
// Lossy links: an optional ErasureOracle (implemented by the loss layer's
// channel models) is consulted once per queued transmission. An erased
// transmission still charges the sender's capacity
// (the packet was sent) but never arrives; the drop is counted in
// EngineStats, reported to observers via on_drop, and otherwise invisible to
// the receiving side — exactly an erasure channel.
//
// Hot-path data structures (DESIGN.md §8, §11, §14): all per-node state
// lives in flat structure-of-arrays storage. Capacity counters are
// epoch-stamped (a counter is "zero" whenever its stamp is not the current
// slot), so a slot costs O(#transmissions), never O(N) counter fills; the
// epochs and counts are separate contiguous arrays, not an array of structs,
// so the phase-1 loop touches only the bytes it reads. Duplicate detection
// for stream packets uses one flat bitmap for ALL nodes — a power-of-two
// word stride per node — instead of N separately heap-allocated bitmap
// vectors; at N = 10^6 that removes a million 2-pointer indirections and
// their allocator metadata. Control-plane ids (>= kControlIdBase) are sparse
// and stay in a hash set. The in-flight ring's per-slot buckets live on a
// per-engine util::Arena — bump allocation, no heap locks, no per-bucket
// metadata — whose counters are surfaced in EngineStats (§14).
//
// Every O(N) allocation is charged to the optional util::BudgetLedger
// before it happens, so an oversized world fails fast with BudgetExceeded
// instead of OOM-ing the host (DESIGN.md §11).
//
// Sharded execution (DESIGN.md §14): an optional TxRouter lets a sharded
// multicluster run divert cross-shard transmissions out of the local ring
// (sender-side validation, capacity charges, loss consultation, and stats
// all happen first), and post() lets the owning shard inject them — into
// the ring for future slots, or via the late path for the final slot of the
// epoch that just ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/net/topology.hpp"
#include "src/sim/erasure.hpp"
#include "src/sim/protocol.hpp"
#include "src/util/arena.hpp"
#include "src/util/budget.hpp"

namespace streamcast::sim {

class ProtocolViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Observer of completed deliveries; metrics recorders implement this.
class DeliveryObserver {
 public:
  virtual ~DeliveryObserver() = default;
  /// One slot's completed arrivals, in ring order. The engine calls this
  /// once per slot with arrivals, plus once per retroactive post().
  virtual void on_deliveries(std::span<const Delivery> arrivals) = 0;
  /// A single arrival: a one-element on_deliveries.
  void on_delivery(const Delivery& d) { on_deliveries({&d, 1}); }
  /// Called when the loss model erases a transmission. Default: ignore, so
  /// loss-oblivious recorders keep working unchanged.
  virtual void on_drop(const Drop&) {}
};

/// Cross-shard transmission router (sharded multicluster execution,
/// DESIGN.md §14). Consulted in phase 1 for every validated, non-erased
/// transmission, after send capacity and stats are charged.
class TxRouter {
 public:
  virtual ~TxRouter() = default;
  /// True: the engine keeps the delivery in its local ring. False: the
  /// router took custody (a cross-shard mailbox, exchanged at the epoch
  /// barrier and re-injected via Engine::post on the owning shard).
  virtual bool keep(const Delivery& d) = 0;
};

struct EngineOptions {
  /// Reject delivering the same packet to the same node twice. All of the
  /// paper's schemes are duplicate-free; churn runs relax this.
  bool forbid_duplicates = true;
  /// Throw ProtocolViolation on capacity/duplicate violations. Audit tests
  /// switch this off so an injected violation reaches the observers and must
  /// be caught by the InvariantAuditor, proving the auditor is an independent
  /// checker rather than a mirror of the engine's own guards. Range, self-
  /// send and negative-id violations always throw: they are memory-safety
  /// guards, not schedule properties.
  bool enforce = true;
  /// Expected stream-packet id range. Sizes the duplicate bitmap up front so
  /// the run never pays a mid-run re-layout; 0 starts minimal and grows on
  /// demand (amortized O(1), exactly as before).
  PacketId packet_window_hint = 0;
  /// When non-null, every O(N) engine allocation is charged here before it
  /// happens (fail fast with BudgetExceeded, never OOM). Must outlive the
  /// engine.
  util::BudgetLedger* budget = nullptr;
  /// Cross-shard router; null = every transmission stays local (the serial
  /// pump). Must outlive the engine.
  TxRouter* router = nullptr;
};

struct EngineStats {
  std::int64_t transmissions = 0;
  std::int64_t duplicate_deliveries = 0;
  /// Transmissions that completed (reported to observers and the protocol).
  std::int64_t deliveries = 0;
  /// Transmissions erased by the loss model.
  std::int64_t drops = 0;
  /// Transmissions flagged Tx::retransmit (NACK repairs).
  std::int64_t retransmissions = 0;
  // --- allocation accounting (DESIGN.md §14) -------------------------------
  /// Bytes served by the engine's bump arena (ring buckets).
  std::int64_t arena_bytes = 0;
  /// Chunks the arena reserved from the system.
  std::int64_t arena_chunks = 0;
  /// Individual arena allocations (bucket growth events).
  std::int64_t arena_allocations = 0;
  /// In-flight ring re-layouts (a larger link latency appeared mid-run).
  std::int64_t ring_relayouts = 0;
  /// Duplicate-bitmap re-layouts (packet ids outgrew the window hint).
  std::int64_t seen_relayouts = 0;
};

class Engine {
 public:
  Engine(const net::Topology& topology, Protocol& protocol,
         EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Simulates slots [now, horizon). Callable repeatedly with increasing
  /// horizons.
  void run_until(Slot horizon);

  /// Next slot to simulate.
  Slot now() const { return now_; }

  void add_observer(DeliveryObserver& obs) { observers_.push_back(&obs); }

  /// Attaches (or clears, with nullptr) the link erasure oracle (the loss
  /// layer's channel models implement it). The engine does not own it; it
  /// must outlive the run.
  void set_loss_model(ErasureOracle* model) { loss_ = model; }

  /// Injects an externally-produced delivery (a cross-shard backbone packet
  /// exchanged at the epoch barrier, DESIGN.md §14). An arrival at now()-1 —
  /// the final slot of the epoch that just ran — is completed immediately
  /// through the same phase-2 path (capacity, duplicate check, observers as
  /// a one-element span, protocol); any arrival >= now() is ringed for its
  /// slot. Arrivals before now()-1 are a caller bug and throw.
  void post(const Delivery& d);

  const EngineStats& stats() const;

 private:
  void step();
  /// Phase 2 over one slot's arrivals: admit all, observers, protocol.
  void complete(Slot t, std::span<const Delivery> arrivals);
  /// Charges receive capacity and checks for a duplicate.
  void admit(Slot t, const Delivery& d);
  void grow_ring(Slot max_latency);
  void grow_seen(std::size_t word);
  bool seen_before(NodeKey node, PacketId packet);
  void charge(const char* component, std::size_t bytes);

  const net::Topology& topology_;
  Protocol& protocol_;
  EngineOptions options_;
  Slot now_ = 0;
  /// Bump arena for the ring buckets: same-lifetime churny allocations stay
  /// off the general-purpose heap (and off its locks, which matters once
  /// one engine runs per shard thread). Declared before the ring so the
  /// buckets' allocator outlives them.
  util::Arena arena_;
  /// In-flight deliveries, bucketed by arrival slot modulo the ring size.
  /// The ring always holds at least the largest link latency seen, so any
  /// two co-resident deliveries with the same bucket share an arrival slot —
  /// the per-slot std::map this replaces was the hottest lookup of every
  /// bench. Outer vector of bucket headers is O(ring size), tiny and
  /// re-laid-out only on latency growth.
  // lint: allow(hot-path-alloc) — O(ring size) headers, relaid on growth
  std::vector<util::ArenaVector<Delivery>> ring_;
  std::size_t ring_mask_ = 0;
  /// Delivered-packet bitmaps for stream ids (< kControlIdBase), all nodes
  /// in one flat allocation: bit j of node x is word x·stride + (j >> 6).
  /// The stride is a power of two, re-laid out on demand. One-shot
  /// budget-charged SoA array, released wholesale on re-layout.
  std::vector<std::uint64_t> seen_words_;  // lint: allow(hot-path-alloc)
  std::size_t seen_stride_ = 0;
  /// Sparse control-plane ids (>= kControlIdBase) keep the hash set; repair
  /// bookkeeping traffic is rare so this is off the hot path.
  // lint: allow(hot-path-alloc) — one node per parity delivery, rare
  std::unordered_set<std::uint64_t> seen_control_;
  std::vector<DeliveryObserver*> observers_;  // lint: allow(hot-path-alloc)
  ErasureOracle* loss_ = nullptr;
  /// Protocol::transmit's signature fixes the scratch type; cleared (not
  /// freed) each slot, so it allocates O(log peak) times per run.
  std::vector<Tx> tx_scratch_;  // lint: allow(hot-path-alloc)
  /// Per-node per-slot capacity counters, epoch-stamped and split into
  /// parallel epoch/count arrays (a stale epoch reads as count zero, so no
  /// per-slot reset pass is needed — DESIGN.md §8). One-shot SoA arrays,
  /// budget-charged at construction.
  std::vector<Slot> send_epoch_;           // lint: allow(hot-path-alloc)
  std::vector<std::int32_t> send_count_;   // lint: allow(hot-path-alloc)
  std::vector<Slot> recv_epoch_;           // lint: allow(hot-path-alloc)
  std::vector<std::int32_t> recv_count_;   // lint: allow(hot-path-alloc)
  /// Bytes currently charged to options_.budget (released on destruction).
  std::size_t charged_bytes_ = 0;
  /// Arena counters are folded in on stats() reads; mutable keeps the
  /// accessor const for the aggregation paths.
  mutable EngineStats stats_;
};

}  // namespace streamcast::sim
