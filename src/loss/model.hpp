// Link erasure models (the fault-injection half of the loss subsystem).
//
// The paper's delay/buffer results (Theorems 2–4) assume perfectly reliable
// links. These models let every scheme in the repo run over lossy links
// instead: the slot engine consults the model once per queued transmission
// and, when the model says "erased", the packet silently never arrives (the
// sender still spends its slot). Two classical channels are provided:
//
//  * BernoulliLoss      — i.i.d. erasures with probability p (memoryless).
//  * GilbertElliottLoss — two-state Markov channel (good/bad) evolved
//    independently per directed link, the standard burst-erasure model used
//    by Badr et al. for streaming codes. Stationary loss rate has the closed
//    form  pi_bad * loss_bad + pi_good * loss_good  with
//    pi_bad = p_enter / (p_enter + p_recover).
//
// All models are seeded with the repo's deterministic xoshiro PRNG, so lossy
// experiments reproduce bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/sim/erasure.hpp"
#include "src/sim/event.hpp"
#include "src/util/prng.hpp"

namespace streamcast::loss {

using sim::Slot;
using sim::Tx;

/// Erasure oracle consulted by the slot engine for every transmission. The
/// interface (sim::ErasureOracle) lives in the simulation core so the
/// engine never includes this layer; the channel models implement it here.
class LossModel : public sim::ErasureOracle {};

/// i.i.d. erasures: every transmission is lost with probability `rate`.
class BernoulliLoss final : public LossModel {
 public:
  BernoulliLoss(double rate, std::uint64_t seed);

  bool erased(Slot t, const Tx& tx) override;

  double rate() const { return rate_; }

 private:
  double rate_;
  util::Prng prng_;
};

/// Gilbert–Elliott burst channel, one independent chain per directed link.
///
/// Each link is in a good or bad state; a transmission is erased with
/// `loss_good` / `loss_bad` respectively, then the state advances
/// (good->bad with `p_enter`, bad->good with `p_recover`). Mean burst
/// (bad-state sojourn) length is 1 / p_recover transmissions.
class GilbertElliottLoss final : public LossModel {
 public:
  struct Params {
    double p_enter = 0.05;    // P(good -> bad) per transmission
    double p_recover = 0.5;   // P(bad -> good) per transmission
    double loss_good = 0.0;   // erasure probability in the good state
    double loss_bad = 1.0;    // erasure probability in the bad state
  };

  GilbertElliottLoss(Params params, std::uint64_t seed);

  bool erased(Slot t, const Tx& tx) override;

  const Params& params() const { return params_; }

  /// Long-run fraction of transmissions erased:
  ///   pi_bad * loss_bad + (1 - pi_bad) * loss_good,
  ///   pi_bad = p_enter / (p_enter + p_recover).
  double stationary_loss_rate() const;

  /// Mean erasures per burst once the link enters the bad state.
  double mean_burst_length() const { return 1.0 / params_.p_recover; }

 private:
  struct Link {
    bool bad = false;
    util::Prng prng;
  };
  Link& link_state(const Tx& tx);

  Params params_;
  std::uint64_t seed_;
  std::unordered_map<std::uint64_t, Link> links_;
};

/// Which erasure channel a session/bench should run.
enum class ErasureKind { kNone, kBernoulli, kGilbertElliott };

/// Factory used by core::run_session and the loss benches. Returns
/// nullptr for kNone. `rate` feeds BernoulliLoss; `ge` feeds Gilbert–Elliott.
std::unique_ptr<LossModel> make_model(ErasureKind kind, double rate,
                                      GilbertElliottLoss::Params ge,
                                      std::uint64_t seed);

}  // namespace streamcast::loss
