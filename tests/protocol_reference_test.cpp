// Flat protocol state against the node-based models it replaced.
//
// HypercubeProtocol keeps one 64-bit word per cube node and
// RandomRegularProtocol a [receiver][d] claim row. ReferenceHypercube and
// ReferenceRrd below are the std::set versions those layouts replaced,
// with the same logic (their comments and argument checks left out). Both
// sides of every case run on their own engine with the same topology, and
// every slot's transmit() output must match entry for entry, up to each
// configuration's horizon:
//   * hypercube: N = 1..300, single chains and grouped chains (d = 1..4),
//     a shifted source key and clock, failed nodes, and NACK recovery
//     under Bernoulli loss (which drives late repairs into deliver()'s
//     refusal of consumed ids);
//   * random-regular: n = 1..200 x d = 2..4 x three seeds at the
//     registry's topology and peer budget, plus a hand-built d = 1 ring
//     (the registry rejects d = 1) for one-entry claim rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.hpp"
#include "src/hypercube/analysis.hpp"
#include "src/hypercube/arbitrary.hpp"
#include "src/hypercube/grouped.hpp"
#include "src/hypercube/protocol.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/net/topology.hpp"
#include "src/rrd/digraph.hpp"
#include "src/rrd/protocol.hpp"
#include "src/scheme/registry.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"

namespace streamcast {
namespace sim {

// Readable gtest output for schedule mismatches.
void PrintTo(const Tx& tx, std::ostream* os) {
  *os << tx.from << " -> " << tx.to << " packet " << tx.packet << " tag "
      << tx.tag;
}

}  // namespace sim

namespace {

using hypercube::Segment;
using hypercube::Vertex;
using sim::kNoPacket;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

// ---------------------------------------------------------------------------
// The reference models.
// ---------------------------------------------------------------------------

/// The hypercube protocol with one std::set of held ids per node.
class ReferenceHypercube final : public sim::Protocol {
 public:
  explicit ReferenceHypercube(std::vector<std::vector<Segment>> chains,
                              NodeKey source_key = 0)
      : source_key_(source_key) {
    NodeKey max_key = 0;
    for (const auto& chain : chains) {
      std::vector<SegState> states;
      for (const Segment& seg : chain) {
        states.push_back(SegState{.seg = seg, .next_consume = 0});
        max_key = std::max(max_key, seg.first + seg.receivers() - 1);
      }
      chains_.push_back(std::move(states));
    }
    held_.resize(static_cast<std::size_t>(std::max(max_key, source_key_)) +
                 1);
    failed_.resize(held_.size(), false);
    seg_of_.resize(held_.size(), {-1, -1});
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      for (std::size_t s = 0; s < chains_[c].size(); ++s) {
        const Segment& seg = chains_[c][s].seg;
        for (NodeKey key = seg.first; key < seg.first + seg.receivers();
             ++key) {
          seg_of_[static_cast<std::size_t>(key)] = {
              static_cast<std::int32_t>(c), static_cast<std::int32_t>(s)};
        }
      }
    }
  }

  void fail_node(NodeKey key) { failed_[static_cast<std::size_t>(key)] = true; }

  std::size_t buffered(NodeKey key) const {
    return held_[static_cast<std::size_t>(key)].size();
  }
  std::size_t max_buffered() const { return max_buffered_; }
  bool holds(NodeKey key, PacketId p) const {
    return held_[static_cast<std::size_t>(key)].contains(p);
  }
  /// Deliveries refused because their packet was already consumed.
  std::int64_t refused() const { return refused_; }

  void transmit(Slot t, std::vector<Tx>& out) override {
    for (auto& chain : chains_) {
      for (auto& st : chain) {
        while (st.seg.consume_slot(st.next_consume) < t) {
          for (NodeKey key = st.seg.first;
               key < st.seg.first + st.seg.receivers(); ++key) {
            held_[static_cast<std::size_t>(key)].erase(st.next_consume);
          }
          ++st.next_consume;
        }
      }
    }
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      auto& chain = chains_[c];
      const auto tag = static_cast<std::int32_t>(c);
      for (std::size_t s = 0; s < chain.size(); ++s) {
        const Segment& seg = chain[s].seg;
        const Slot tau = t - seg.start;
        if (tau < 0) break;
        const int j = hypercube::dimension_of(tau, seg.k);
        const Vertex entry = Vertex{1} << j;
        NodeKey sender = source_key_;
        if (s > 0) {
          const Segment& up = chain[s - 1].seg;
          const Slot up_tau = t - up.start;
          sender = up.key_of(Vertex{1}
                             << hypercube::dimension_of(up_tau, up.k));
        }
        const NodeKey entry_key = seg.key_of(entry);
        if (!failed_[static_cast<std::size_t>(sender)] &&
            !failed_[static_cast<std::size_t>(entry_key)]) {
          out.push_back(
              Tx{.from = sender, .to = entry_key, .packet = tau, .tag = tag});
        }
        const Vertex total = Vertex{1} << seg.k;
        const Vertex bit = Vertex{1} << j;
        for (Vertex v = 1; v < total; ++v) {
          if ((v & bit) != 0) continue;
          const NodeKey a = seg.key_of(v);
          const NodeKey b = seg.key_of(v | bit);
          const bool a_ok = !failed_[static_cast<std::size_t>(a)];
          const bool b_ok = !failed_[static_cast<std::size_t>(b)];
          const auto& ha = held_[static_cast<std::size_t>(a)];
          const auto& hb = held_[static_cast<std::size_t>(b)];
          if (a_ok && b_ok) {
            for (const PacketId p : ha) {
              if (!hb.contains(p)) {
                out.push_back(Tx{.from = a, .to = b, .packet = p, .tag = tag});
                break;
              }
            }
            for (const PacketId p : hb) {
              if (!ha.contains(p)) {
                out.push_back(Tx{.from = b, .to = a, .packet = p, .tag = tag});
                break;
              }
            }
          }
        }
      }
    }
  }

  void deliver(Slot /*t*/, const Tx& tx) override {
    const auto [chain, seg] = seg_of_[static_cast<std::size_t>(tx.to)];
    if (chain >= 0 &&
        tx.packet < chains_[static_cast<std::size_t>(chain)]
                           [static_cast<std::size_t>(seg)]
                               .next_consume) {
      ++refused_;
      return;
    }
    auto& held = held_[static_cast<std::size_t>(tx.to)];
    const bool fresh = held.insert(tx.packet).second;
    assert(fresh);
    (void)fresh;
    max_buffered_ = std::max(max_buffered_, held.size());
  }

 private:
  struct SegState {
    Segment seg;
    PacketId next_consume = 0;
  };

  std::vector<std::vector<SegState>> chains_;
  NodeKey source_key_ = 0;
  std::vector<std::set<PacketId>> held_;
  std::vector<bool> failed_;
  std::vector<std::pair<std::int32_t, std::int32_t>> seg_of_;
  std::size_t max_buffered_ = 0;
  std::int64_t refused_ = 0;
};

/// The random-regular protocol with one global std::set of per-slot
/// (receiver, packet) claims.
class ReferenceRrd final : public sim::Protocol {
 public:
  ReferenceRrd(rrd::Digraph graph, int peer_budget)
      : graph_(std::move(graph)),
        peer_budget_(peer_budget),
        holds_(static_cast<std::size_t>(graph_.n) + 1),
        recv_used_(static_cast<std::size_t>(graph_.n) + 1, 0) {}

  void transmit(Slot t, std::vector<Tx>& out) override {
    std::fill(recv_used_.begin(), recv_used_.end(), 0);
    claimed_.clear();
    const auto claim = [&](NodeKey from, NodeKey to, PacketId p) {
      out.push_back(Tx{from, to, p, /*tag=*/0, /*retransmit=*/false});
      claimed_.insert({to, p});
      ++recv_used_[static_cast<std::size_t>(to)];
    };
    std::vector<std::pair<PacketId, NodeKey>> targets;
    const auto repair_push = [&](NodeKey from,
                                 const std::vector<NodeKey>& neighbors,
                                 int budget) {
      targets.clear();
      for (const NodeKey v : neighbors) {
        targets.emplace_back(
            holds_[static_cast<std::size_t>(v)].gap_free_prefix(), v);
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      for (int used = 0; used < budget; ++used) {
        bool sent = false;
        for (const auto& [prefix, v] : targets) {
          if (recv_used_[static_cast<std::size_t>(v)] >= graph_.d) continue;
          const PacketId p = oldest_useful(from, v, t);
          if (p == kNoPacket) continue;
          claim(from, v, p);
          sent = true;
          break;
        }
        if (!sent) break;
      }
    };
    repair_push(0, graph_.source_out, graph_.d);
    for (NodeKey u = 1; u <= graph_.n; ++u) {
      const auto& nbrs = graph_.out[static_cast<std::size_t>(u - 1)];
      if (nbrs.empty()) continue;
      int used = 0;
      for (std::size_t i = 0; i < nbrs.size() && used < 1; ++i) {
        const NodeKey v = nbrs[(static_cast<std::size_t>(t) +
                                static_cast<std::size_t>(u) + i) %
                               nbrs.size()];
        if (recv_used_[static_cast<std::size_t>(v)] >= graph_.d) continue;
        const PacketId p = latest_useful(u, v);
        if (p == kNoPacket) continue;
        claim(u, v, p);
        ++used;
      }
      repair_push(u, nbrs, peer_budget_ - used);
    }
  }

  void deliver(Slot /*t*/, const Tx& tx) override {
    holds_[static_cast<std::size_t>(tx.to)].mark(tx.packet);
  }

 private:
  PacketId oldest_useful(NodeKey from, NodeKey to, Slot t) const {
    const auto& target = holds_[static_cast<std::size_t>(to)];
    const PacketId from_end =
        from == 0 ? static_cast<PacketId>(t) + 1
                  : holds_[static_cast<std::size_t>(from)].highest_held() + 1;
    const auto* from_holds =
        from == 0 ? nullptr : &holds_[static_cast<std::size_t>(from)];
    for (PacketId p = target.gap_free_prefix(); p < from_end; ++p) {
      if (target.has(p)) continue;
      if (from_holds != nullptr && !from_holds->has(p)) continue;
      if (claimed_.contains({to, p})) continue;
      return p;
    }
    return kNoPacket;
  }

  PacketId latest_useful(NodeKey from, NodeKey to) const {
    const auto& target = holds_[static_cast<std::size_t>(to)];
    const auto& sender = holds_[static_cast<std::size_t>(from)];
    for (PacketId p = sender.highest_held(); p >= target.gap_free_prefix();
         --p) {
      if (!sender.has(p) || target.has(p)) continue;
      if (claimed_.contains({to, p})) continue;
      return p;
    }
    return kNoPacket;
  }

  rrd::Digraph graph_;
  int peer_budget_;
  std::vector<loss::SequenceTracker> holds_;
  std::vector<int> recv_used_;
  std::set<std::pair<NodeKey, PacketId>> claimed_;
};

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

/// Every (slot, Tx) a protocol's transmit() produced, in emission order.
using Schedule = std::vector<std::pair<Slot, Tx>>;

/// Forwards to `inner` and records its transmit() output.
class Recorded final : public sim::Protocol {
 public:
  explicit Recorded(sim::Protocol& inner) : inner_(inner) {}

  void transmit(Slot t, std::vector<Tx>& out) override {
    const std::size_t first = out.size();
    inner_.transmit(t, out);
    for (std::size_t i = first; i < out.size(); ++i) {
      schedule.emplace_back(t, out[i]);
    }
  }
  void deliver(Slot t, const Tx& tx) override { inner_.deliver(t, tx); }

  Schedule schedule;

 private:
  sim::Protocol& inner_;
};

/// Runs `protocol` on its own engine over `topology` through `horizon`.
Schedule run_reliable(const net::Topology& topology, sim::Protocol& protocol,
                      Slot horizon) {
  Recorded recorded(protocol);
  sim::Engine engine(topology, recorded);
  engine.run_until(horizon);
  return std::move(recorded.schedule);
}

/// Same, wrapped in a NACK RecoveryProtocol under Bernoulli loss, as a
/// lossy hypercube session is (gap sweep at the overlay's slack).
Schedule run_nack(const net::Topology& base, sim::Protocol& protocol,
                  Slot horizon, Slot gap_timeout, double rate,
                  std::uint64_t seed) {
  net::ProvisionedTopology topology(base, 1, 1);
  Recorded recorded(protocol);
  loss::RecoveryOptions options;
  options.policy = "nack";
  options.gap_timeout = gap_timeout;
  loss::RecoveryProtocol recovery(topology, recorded, options);
  loss::BernoulliLoss model(rate, seed);
  sim::Engine engine(topology, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(horizon);
  return std::move(recorded.schedule);
}

std::string describe(const Schedule& s, std::size_t i) {
  if (i >= s.size()) return "<end of schedule>";
  const auto& [t, tx] = s[i];
  return "slot " + std::to_string(t) + ": " + std::to_string(tx.from) +
         " -> " + std::to_string(tx.to) + " packet " +
         std::to_string(tx.packet) + " tag " + std::to_string(tx.tag);
}

/// The flat protocol's schedule must equal the reference's, entry for
/// entry; reports the first divergence.
void expect_same_schedule(const Schedule& flat, const Schedule& reference,
                          const std::string& label) {
  const auto [f, r] = std::ranges::mismatch(flat, reference);
  if (f == flat.end() && r == reference.end()) return;
  const auto at = static_cast<std::size_t>(f - flat.begin());
  ADD_FAILURE() << label << ": schedules diverge at entry " << at
                << " of " << flat.size() << " / " << reference.size()
                << "\n  flat:      " << describe(flat, at)
                << "\n  reference: " << describe(reference, at);
}

/// The registry's chains: one for the plain scheme (d = 1), d groups for
/// the grouped variant.
std::vector<std::vector<Segment>> chains_of(NodeKey n, int d) {
  if (d == 1) return {hypercube::decompose_chain(n)};
  std::vector<std::vector<Segment>> chains;
  for (auto& g : hypercube::decompose_grouped(n, d)) {
    chains.push_back(std::move(g.chain));
  }
  return chains;
}

scheme::Overlay registry_overlay(core::Scheme s, NodeKey n, int d,
                                 std::uint64_t seed = 0x5eed) {
  core::SessionConfig config;
  config.scheme = s;
  config.n = n;
  config.d = d;
  config.seed = seed;
  return scheme::descriptor(s).build(config);
}

// ---------------------------------------------------------------------------
// Hypercube.
// ---------------------------------------------------------------------------

TEST(HypercubeReference, SingleChainsMatchSetModel) {
  for (NodeKey n = 1; n <= 300; ++n) {
    const scheme::Overlay o = registry_overlay(core::Scheme::kHypercube, n, 1);
    const Slot horizon = o.window + o.slack;
    hypercube::HypercubeProtocol flat({hypercube::decompose_chain(n)});
    ReferenceHypercube reference({hypercube::decompose_chain(n)});
    expect_same_schedule(run_reliable(*o.topology, flat, horizon),
                         run_reliable(*o.topology, reference, horizon),
                         "n=" + std::to_string(n));
    EXPECT_EQ(flat.max_buffered(), reference.max_buffered()) << "n=" << n;
    for (NodeKey key = 1; key <= n; ++key) {
      ASSERT_EQ(flat.buffered(key), reference.buffered(key))
          << "n=" << n << " key=" << key;
    }
  }
}

TEST(HypercubeReference, GroupedChainsMatchSetModel) {
  for (int d = 1; d <= 4; ++d) {
    for (NodeKey n = 1; n <= 300; ++n) {
      const scheme::Overlay o =
          registry_overlay(core::Scheme::kHypercubeGrouped, n, d);
      const Slot horizon = o.window + o.slack;
      hypercube::HypercubeProtocol flat(chains_of(n, d));
      ReferenceHypercube reference(chains_of(n, d));
      const std::string label =
          "n=" + std::to_string(n) + " d=" + std::to_string(d);
      expect_same_schedule(run_reliable(*o.topology, flat, horizon),
                           run_reliable(*o.topology, reference, horizon),
                           label);
      EXPECT_EQ(flat.max_buffered(), reference.max_buffered()) << label;
    }
  }
}

TEST(HypercubeReference, ShiftedSourceKeyAndClockMatchSetModel) {
  // A super-tree cluster's chain: keys after an idle range, injected by a
  // non-zero local root, on a clock shifted by the backbone offset.
  constexpr NodeKey kRoot = 5;
  constexpr NodeKey kFirst = 9;
  for (const Slot offset : {Slot{0}, Slot{3}, Slot{11}}) {
    for (NodeKey n = 1; n <= 130; ++n) {
      const net::UniformCluster topology(kFirst - 1 + n, 1);
      const Slot horizon = offset + 2 * hypercube::worst_delay(n) + 24;
      hypercube::HypercubeProtocol flat(
          {hypercube::decompose_chain(n, kFirst, offset)}, kRoot);
      ReferenceHypercube reference(
          {hypercube::decompose_chain(n, kFirst, offset)}, kRoot);
      expect_same_schedule(
          run_reliable(topology, flat, horizon),
          run_reliable(topology, reference, horizon),
          "n=" + std::to_string(n) + " offset=" + std::to_string(offset));
    }
  }
}

TEST(HypercubeReference, FailedNodesMatchSetModel) {
  for (const NodeKey stride : {3, 7, 16}) {
    for (NodeKey n = 2; n <= 300; ++n) {
      const scheme::Overlay o =
          registry_overlay(core::Scheme::kHypercube, n, 1);
      const Slot horizon = o.window + o.slack;
      hypercube::HypercubeProtocol flat({hypercube::decompose_chain(n)});
      ReferenceHypercube reference({hypercube::decompose_chain(n)});
      for (NodeKey key = 1 + n % stride; key <= n; key += stride) {
        flat.fail_node(key);
        reference.fail_node(key);
      }
      const std::string label =
          "n=" + std::to_string(n) + " stride=" + std::to_string(stride);
      expect_same_schedule(run_reliable(*o.topology, flat, horizon),
                           run_reliable(*o.topology, reference, horizon),
                           label);
      EXPECT_EQ(flat.max_buffered(), reference.max_buffered()) << label;
    }
  }
}

TEST(HypercubeReference, ArbitraryDeliveriesMatchSetModel) {
  // Beyond the engine's reachable states, where no node ever holds two
  // packets its partner lacks: drop emitted packets at random and inject
  // repairs of random existing ids, the same for both models, so partners
  // drift apart and deliver() sees late and out-of-order ids.
  util::Prng prng(2024);
  std::int64_t refused = 0;
  for (NodeKey n = 1; n <= 200; n += 3) {
    const std::vector<Segment> chain = hypercube::decompose_chain(n);
    hypercube::HypercubeProtocol flat({chain});
    ReferenceHypercube reference({chain});
    const Slot horizon = 2 * hypercube::worst_delay(n) + 24;
    std::vector<Tx> flat_out;
    std::vector<Tx> reference_out;
    for (Slot t = 0; t < horizon; ++t) {
      flat_out.clear();
      reference_out.clear();
      flat.transmit(t, flat_out);
      reference.transmit(t, reference_out);
      ASSERT_EQ(flat_out, reference_out) << "n=" << n << " t=" << t;
      const auto deliver = [&](const Tx& tx) {
        flat.deliver(t, tx);
        reference.deliver(t, tx);
      };
      for (const Tx& tx : flat_out) {
        if (!prng.chance(0.25)) deliver(tx);
      }
      for (int repair = 0; repair < 3; ++repair) {
        const auto to = static_cast<NodeKey>(prng.range(1, n));
        const auto seg = std::ranges::find_if(chain, [&](const Segment& s) {
          return to < s.first + s.receivers();
        });
        const Slot tau = t - seg->start;
        if (tau < 0) continue;
        // Any id the segment has seen: consumed ones are refused.
        const PacketId p = prng.range(std::max<Slot>(0, tau - 2 * seg->k), tau);
        if (reference.holds(to, p)) continue;
        deliver(Tx{.from = 0, .to = to, .packet = p, .tag = 0});
      }
      for (NodeKey key = 1; key <= n; ++key) {
        ASSERT_EQ(flat.buffered(key), reference.buffered(key))
            << "n=" << n << " t=" << t << " key=" << key;
      }
    }
    EXPECT_EQ(flat.max_buffered(), reference.max_buffered()) << "n=" << n;
    refused += reference.refused();
  }
  EXPECT_GT(refused, 0);
}

TEST(HypercubeReference, NackRecoveryUnderLossMatchesSetModel) {
  std::int64_t refused = 0;
  for (const int d : {1, 2, 3}) {
    for (NodeKey n = 1; n <= 120; n += 7) {
      for (const double rate : {0.03, 0.1}) {
        for (const std::uint64_t seed : {1U, 2U, 3U}) {
          const core::Scheme s = d == 1 ? core::Scheme::kHypercube
                                        : core::Scheme::kHypercubeGrouped;
          const scheme::Overlay o = registry_overlay(s, n, d);
          // The reliable horizon plus a drain for the repairs.
          const Slot horizon = o.window + o.slack + 64;
          hypercube::HypercubeProtocol flat(chains_of(n, d));
          ReferenceHypercube reference(chains_of(n, d));
          const std::string label = "n=" + std::to_string(n) +
                                    " d=" + std::to_string(d) +
                                    " rate=" + std::to_string(rate) +
                                    " seed=" + std::to_string(seed);
          expect_same_schedule(
              run_nack(*o.topology, flat, horizon, o.slack, rate, seed),
              run_nack(*o.topology, reference, horizon, o.slack, rate, seed),
              label);
          EXPECT_EQ(flat.max_buffered(), reference.max_buffered()) << label;
          refused += reference.refused();
        }
      }
    }
  }
  // The grid must reach deliver()'s refusal of already-consumed ids.
  EXPECT_GT(refused, 0);
}

// ---------------------------------------------------------------------------
// Random regular digraph.
// ---------------------------------------------------------------------------

/// One overlay seed per instance, so ctest runs the seeds in parallel.
class RrdReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RrdReference, RegistryOverlaysMatchSetModel) {
  const std::uint64_t seed = GetParam();
  for (int d = 2; d <= 4; ++d) {
    for (NodeKey n = 1; n <= 200; ++n) {
      const scheme::Overlay o =
          registry_overlay(core::Scheme::kRandomRegular, n, d, seed);
      const Slot horizon = o.window + o.slack;
      // The registry provisions receivers with exactly the protocol's peer
      // budget.
      const int budget = o.topology->send_capacity(1);
      rrd::RandomRegularProtocol flat(rrd::build_digraph(n, d, seed), budget);
      ReferenceRrd reference(rrd::build_digraph(n, d, seed), budget);
      expect_same_schedule(run_reliable(*o.topology, flat, horizon),
                           run_reliable(*o.topology, reference, horizon),
                           "n=" + std::to_string(n) +
                               " d=" + std::to_string(d) +
                               " seed=" + std::to_string(seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RrdReference,
                         ::testing::Values(0x5eed, 7, 1234567));

TEST(RrdRingReference, DegreeOneRingMatchesSetModel) {
  // build_digraph needs d >= 2; a ring exercises one-entry claim rows.
  for (NodeKey n = 1; n <= 60; ++n) {
    rrd::Digraph ring;
    ring.n = n;
    ring.d = 1;
    ring.source_out = {1};
    ring.out.resize(static_cast<std::size_t>(n));
    for (NodeKey u = 1; n > 1 && u <= n; ++u) {
      ring.out[static_cast<std::size_t>(u - 1)] = {u % n + 1};
    }
    const net::UniformCluster topology(n, 1, 1, 1, 2);
    const Slot horizon = 2 * n + 16;
    rrd::RandomRegularProtocol flat(ring, 2);
    ReferenceRrd reference(ring, 2);
    expect_same_schedule(run_reliable(topology, flat, horizon),
                         run_reliable(topology, reference, horizon),
                         "n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace streamcast
