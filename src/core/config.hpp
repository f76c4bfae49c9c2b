// Public configuration of a streaming session.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/multitree/protocol.hpp"
#include "src/policy/startup.hpp"
#include "src/scale/options.hpp"
#include "src/sim/packet.hpp"

namespace streamcast::core {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

/// Which overlay scheme to run inside one cluster.
enum class Scheme {
  kMultiTreeStructured,  // §2.2.1
  kMultiTreeGreedy,      // §2.2.2
  kHypercube,            // §3.2 (single chain; §3.1 when N = 2^k - 1)
  kHypercubeGrouped,     // §3.2 final paragraph (d groups)
  kChain,                // §1 strawman
  kSingleTree,           // §1 strawman with d-times receiver upload
  kRandomRegular,        // Kim–Srikant random regular digraph (1308.6807)
  kDynamicTrees,         // Zhu–Hajek distributed tree dynamics (1308.1971)
};

/// Canonical scheme name (the SchemeRegistry descriptor's name field).
const char* scheme_name(Scheme s);

/// Exact inverse of scheme_name(): parses a canonical name back to the
/// enumerator. Throws std::invalid_argument on an unknown name.
Scheme parse_scheme(std::string_view name);

/// The QosReport::scheme label: the bare canonical name for a single
/// cluster, "<name> x<K> clusters" for a multi-cluster run. The one place
/// that string is formatted.
std::string scheme_label(Scheme s, int clusters = 1);

/// Lossy-link extension of a session (single cluster only). The default —
/// model == kNone — is exactly the reliable run; nothing is wrapped.
struct LossConfig {
  /// Erasure channel on every link. kNone disables the whole subsystem.
  loss::ErasureKind model = loss::ErasureKind::kNone;
  /// Bernoulli erasure probability (model == kBernoulli).
  double rate = 0.0;
  /// Gilbert–Elliott channel parameters (model == kGilbertElliott).
  loss::GilbertElliottLoss::Params ge{};
  /// Seed for the erasure PRNG; runs reproduce bit-for-bit.
  std::uint64_t seed = 0x5eed;
  /// How gaps are repaired (see loss::RecoveryProtocol).
  policy::RecoveryMode recovery = policy::RecoveryMode::kNack;
  /// Recovery policy registry entry (policy::recovery_policies()): "none",
  /// "nack", "xor-parity", or "streaming-code". Empty routes through the
  /// legacy `recovery` enum above.
  std::string recovery_policy{};
  /// Badr–Lui–Khisti streaming-code parameters (recovery_policy ==
  /// "streaming-code"): decode delay T and correctable burst B.
  policy::StreamingCodeOptions code{};
  /// Data packets per XOR parity packet (xor-parity, selected by name or
  /// by recovery == kFec).
  int fec_window = 8;
  /// Capacity headroom for repair traffic on top of the paper's exactly-
  /// provisioned links (net::ProvisionedTopology). Unused at loss rate 0.
  int extra_send = 1;
  int extra_recv = 1;
  /// Extra slots past the reliable horizon the session may simulate while
  /// waiting for every receiver's gap-free prefix to reach the window.
  Slot max_drain = 4096;
  /// Playback start slot for the continuity metrics; -1 = use the run's
  /// worst playback delay (so a reliable run reports zero stalls).
  Slot playback_start = -1;
};

/// Compile-time default for SessionConfig::audit: true when the library is
/// built with -DSTREAMCAST_AUDIT=ON (the `audit` preset), so the full test
/// suite and benches run under the invariant auditor without source changes.
#ifdef STREAMCAST_AUDIT_DEFAULT
inline constexpr bool kAuditDefault = true;
#else
inline constexpr bool kAuditDefault = false;
#endif

struct SessionConfig {
  Scheme scheme = Scheme::kMultiTreeGreedy;
  /// Receivers in the cluster (per cluster, when clusters > 1).
  NodeKey n = 0;
  /// Source capacity / tree degree / group count, per scheme.
  int d = 2;
  /// Stream mode (single-cluster multi-tree schemes only; hypercube and
  /// baselines stream pre-recorded data, and validate() rejects a live mode
  /// with clusters > 1).
  multitree::StreamMode mode = multitree::StreamMode::kPreRecorded;
  /// Packets measured. 0 = pick automatically (enough for steady state).
  PacketId window = 0;
  /// Overlay-construction seed for the randomized schemes (kRandomRegular's
  /// permutation digraph, kDynamicTrees' join tie-breaks). Deterministic
  /// schemes ignore it; two runs with equal seeds are byte-identical.
  std::uint64_t seed = 0x5eed;

  // --- cross-cluster composition (§2.1) ------------------------------------
  /// 1 = single-cluster streaming straight from S. > 1 = the super-tree τ
  /// over `clusters` equal clusters of n receivers each; `scheme` then
  /// selects the intra-cluster overlay (kMultiTreeGreedy or kHypercube).
  int clusters = 1;
  /// Backbone degree D >= 3 (clusters > 1 only).
  int big_d = 3;
  /// Inter-cluster latency T_c > 1 (clusters > 1 only).
  Slot t_c = 10;
  /// Worker threads a multicluster run is sharded across at the super-tree
  /// cluster boundary (clamped to [1, clusters]; DESIGN.md §14). Output is
  /// byte-identical at every value — 1 is the serial pump.
  int shards = 1;

  // --- lossy links (clusters == 1 only) ------------------------------------
  LossConfig loss{};

  /// Playback startup policy for the continuity metrics (DESIGN.md §15):
  /// when playback starts at each receiver. The default ("fixed") is the
  /// historical behavior — LossConfig::playback_start, else the run's
  /// worst playback delay — and is byte-identical to the pre-policy
  /// pipeline.
  policy::StartupOptions startup{};

  /// Million-node scale path (DESIGN.md §11): the threshold for the
  /// sketched summaries and the closed-form schedule replay, and the memory
  /// budget every run's allocations are charged against.
  scale::ScaleOptions scale{};

  /// Run under the audit::InvariantAuditor: every slot's capacity use,
  /// schedule collisions, latency pacing, duplicate-freedom, and the
  /// scheme's claimed delay/buffer envelopes are re-checked from the
  /// observer stream, and the session throws sim::ProtocolViolation with a
  /// structured AuditReport if any invariant fails.
  bool audit = kAuditDefault;
};

}  // namespace streamcast::core
