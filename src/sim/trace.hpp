// Delivery trace: an ordered record of every completed transmission, used by
// the figure-reproduction benches (Figures 2 and 6 are per-slot schedule
// tables) and by tests that assert exact schedules.
//
// Trace is itself a DeliveryObserver, so `engine.add_observer(trace)` records
// every delivery — and, on lossy links, every erased transmission — without
// an adapter class.
#pragma once

#include <span>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/sim/event.hpp"

namespace streamcast::sim {

class Trace final : public DeliveryObserver {
 public:
  void on_deliveries(std::span<const Delivery> arrivals) override {
    deliveries_.insert(deliveries_.end(), arrivals.begin(), arrivals.end());
  }
  void on_drop(const Drop& d) override { drops_.push_back(d); }

  const std::vector<Delivery>& all() const { return deliveries_; }

  /// Every transmission the loss model erased, in send-slot order.
  const std::vector<Drop>& drops() const { return drops_; }

  /// Deliveries received by `node`, in receive-slot order.
  std::vector<Delivery> received_by(NodeKey node) const;

  /// Deliveries sent by `node`, in send-slot order.
  std::vector<Delivery> sent_by(NodeKey node) const;

  /// Deliveries whose transmission started in slot t.
  std::vector<Delivery> sent_in(Slot t) const;

 private:
  std::vector<Delivery> deliveries_;
  std::vector<Drop> drops_;
};

}  // namespace streamcast::sim
