#include "src/metrics/playback.hpp"

#include <utility>

namespace streamcast::metrics {

PeerPlaybackTracker::PeerPlaybackTracker(PeerOf peer_of, Slot startup_margin)
    : peer_of_(std::move(peer_of)), margin_(startup_margin) {}

void PeerPlaybackTracker::peer_seated(PeerId peer, Slot t,
                                      PacketId live_edge) {
  buffers_.emplace(peer, net::PlaybackBuffer(t + margin_, live_edge));
  ++tracked_;
}

void PeerPlaybackTracker::on_deliveries(std::span<const Delivery> arrivals) {
  for (const Delivery& d : arrivals) {
    const auto it = buffers_.find(peer_of_(d.tx.to));
    if (it == buffers_.end()) continue;
    it->second.advance_to(d.received - 1);
    it->second.on_receive(d.received, d.tx.packet);
  }
}

void PeerPlaybackTracker::retire(net::PlaybackBuffer& buffer, Slot t) {
  buffer.advance_to(t);
  hiccups_ += buffer.hiccups();
  played_ += buffer.played();
  late_ += buffer.late_or_duplicate();
  if (buffer.hiccups() > 0) ++peers_with_hiccups_;
}

void PeerPlaybackTracker::peer_left(PeerId peer, Slot t) {
  const auto it = buffers_.find(peer);
  if (it == buffers_.end()) return;
  retire(it->second, t);
  buffers_.erase(it);
}

void PeerPlaybackTracker::finish(Slot t) {
  for (auto& [peer, buffer] : buffers_) retire(buffer, t);
  buffers_.clear();
}

}  // namespace streamcast::metrics
