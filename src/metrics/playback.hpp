// Per-peer playback accounting under churn: one net::PlaybackBuffer per
// peer, started `startup_margin` slots after the peer is seated, playing
// from the live edge of that moment. Every packet missing in its due slot is
// one hiccup — where a churn-capable overlay's restructuring surfaces as
// measured QoS.
//
// The overlays differ only in how a delivery's receiving key maps to a
// peer, so that map is a constructor argument: the churned multi-tree moves
// peers between reused structural ids (multitree::ChurnForest::peer_at),
// while dyntree keys are permanent and map to themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>

#include "src/net/buffer.hpp"
#include "src/sim/engine.hpp"

namespace streamcast::metrics {

using sim::Delivery;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

class PeerPlaybackTracker final : public sim::DeliveryObserver {
 public:
  using PeerId = std::int64_t;
  /// Peer whose buffer a delivery to `key` fills; deliveries to keys whose
  /// peer is not seated (a vacant structural id) are ignored.
  using PeerOf = std::function<PeerId(NodeKey key)>;

  PeerPlaybackTracker(PeerOf peer_of, Slot startup_margin);

  void on_deliveries(std::span<const Delivery> arrivals) override;

  /// Registers a peer seated at slot t: playback starts at
  /// t + startup_margin with packet `live_edge`, the overlay's live edge at
  /// the seating moment.
  void peer_seated(PeerId peer, Slot t, PacketId live_edge);
  /// Finalizes a departing peer's stats (call before the overlay drops it).
  void peer_left(PeerId peer, Slot t);
  /// Finalizes all remaining peers at the end of the run.
  void finish(Slot t);

  std::int64_t total_hiccups() const { return hiccups_; }
  std::int64_t total_played() const { return played_; }
  std::int64_t late_or_duplicate() const { return late_; }
  std::size_t peers_tracked() const { return tracked_; }
  std::size_t peers_with_hiccups() const { return peers_with_hiccups_; }

 private:
  void retire(net::PlaybackBuffer& buffer, Slot t);

  PeerOf peer_of_;
  Slot margin_;
  std::map<PeerId, net::PlaybackBuffer> buffers_;
  std::int64_t hiccups_ = 0;
  std::int64_t played_ = 0;
  std::int64_t late_ = 0;
  std::size_t tracked_ = 0;
  std::size_t peers_with_hiccups_ = 0;
};

}  // namespace streamcast::metrics
