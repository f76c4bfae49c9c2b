// Umbrella header: the full public API of the streamcast library.
//
// streamcast reproduces "On the Tradeoff Between Playback Delay and Buffer
// Space in Streaming" (Chow, Golubchik, Khuller, Yao; IPPS 2009): slot-
// synchronous streaming over interior-disjoint multi-tree forests (§2) and
// pipelined hypercube overlays (§3), with the cross-cluster super-tree
// composition (§2.1), churn maintenance (appendix), the NP-completeness
// apparatus for interior-disjoint trees on general graphs (appendix), and
// the baselines the paper argues against (§1).
//
// Entry points:
//   core::run_session           — run a scheme, get a QoS report.
//   multitree::build_greedy / build_structured / MultiTreeProtocol
//   hypercube::decompose_chain / decompose_grouped / HypercubeProtocol
//   supertree::SuperTreeProtocol — multi-cluster composition.
//   multitree::ChurnForest      — dynamic membership.
//   graph::two_interior_disjoint_trees — exact solver + E4SS reduction.
#pragma once

#include "src/audit/auditor.hpp"             // IWYU pragma: export
#include "src/audit/injector.hpp"            // IWYU pragma: export
#include "src/audit/report.hpp"              // IWYU pragma: export
#include "src/baseline/chain.hpp"            // IWYU pragma: export
#include "src/baseline/single_tree.hpp"      // IWYU pragma: export
#include "src/core/config.hpp"               // IWYU pragma: export
#include "src/core/pipeline.hpp"              // IWYU pragma: export
#include "src/core/report.hpp"               // IWYU pragma: export
#include "src/core/session.hpp"              // IWYU pragma: export
#include "src/fluid/bounds.hpp"              // IWYU pragma: export
#include "src/graph/idt_heuristic.hpp"       // IWYU pragma: export
#include "src/graph/idt_solver.hpp"          // IWYU pragma: export
#include "src/graph/reduction.hpp"           // IWYU pragma: export
#include "src/graph/set_splitting.hpp"       // IWYU pragma: export
#include "src/graph/stream.hpp"              // IWYU pragma: export
#include "src/hypercube/analysis.hpp"        // IWYU pragma: export
#include "src/hypercube/dynamics.hpp"        // IWYU pragma: export
#include "src/hypercube/protocol.hpp"        // IWYU pragma: export
#include "src/hypercube/special.hpp"         // IWYU pragma: export
#include "src/metrics/buffers.hpp"           // IWYU pragma: export
#include "src/metrics/delay.hpp"             // IWYU pragma: export
#include "src/metrics/jitter.hpp"            // IWYU pragma: export
#include "src/metrics/neighbors.hpp"         // IWYU pragma: export
#include "src/metrics/playback.hpp"          // IWYU pragma: export
#include "src/metrics/summary.hpp"           // IWYU pragma: export
#include "src/multitree/analysis.hpp"        // IWYU pragma: export
#include "src/multitree/churn.hpp"           // IWYU pragma: export
#include "src/multitree/dynamic.hpp"         // IWYU pragma: export
#include "src/multitree/greedy.hpp"          // IWYU pragma: export
#include "src/multitree/protocol.hpp"        // IWYU pragma: export
#include "src/multitree/resilience.hpp"      // IWYU pragma: export
#include "src/multitree/schedule.hpp"        // IWYU pragma: export
#include "src/multitree/serialize.hpp"       // IWYU pragma: export
#include "src/multitree/structured.hpp"      // IWYU pragma: export
#include "src/multitree/validate.hpp"        // IWYU pragma: export
#include "src/net/buffer.hpp"                // IWYU pragma: export
#include "src/net/topology.hpp"              // IWYU pragma: export
#include "src/scale/recorder.hpp"            // IWYU pragma: export
#include "src/scale/replay.hpp"              // IWYU pragma: export
#include "src/scale/sketch.hpp"              // IWYU pragma: export
#include "src/scheme/registry.hpp"           // IWYU pragma: export
#include "src/sim/engine.hpp"                // IWYU pragma: export
#include "src/sim/trace.hpp"                 // IWYU pragma: export
#include "src/supertree/analysis.hpp"        // IWYU pragma: export
#include "src/supertree/protocol.hpp"        // IWYU pragma: export
#include "src/util/dot.hpp"                  // IWYU pragma: export
#include "src/workload/churn_trace.hpp"      // IWYU pragma: export
