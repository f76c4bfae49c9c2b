#include "tests/support/injector.hpp"

namespace streamcast::audit {

void OverSendInjector::transmit(Slot t, std::vector<sim::Tx>& out) {
  const std::size_t before = out.size();
  inner_.transmit(t, out);
  if (t != at_ || out.size() == before) return;
  fired_ = true;
  injected_ = out[before];
  for (int c = 0; c < copies_; ++c) out.push_back(injected_);
  pending_dupes_ = copies_;
}

void OverSendInjector::deliver(Slot t, const sim::Tx& tx) {
  if (fired_ && pending_dupes_ > 0 && tx == injected_) {
    // The first arrival is the legitimate one; later identical arrivals are
    // our injected copies.
    if (++seen_injected_ > 1) {
      --pending_dupes_;
      return;
    }
  }
  inner_.deliver(t, tx);
}

}  // namespace streamcast::audit
