// Scheme registry parity + capability suite (ISSUE 5 tentpole lock).
//
// The heart is the golden parity grid: every Scheme x stream mode x
// {lossless, lossy} cell from scheme_parity_cells.hpp, run through the
// SchemeRegistry + RunPipeline and compared byte-for-byte against the
// serialized reports captured from the pre-refactor 18-arm dispatch
// (scheme_parity_golden.inc). The grid executes through run::run_sweep so
// the same assertions double as TSan coverage for the parallel runner.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/session.hpp"
#include "src/policy/registry.hpp"
#include "src/run/sweep.hpp"
#include "src/scheme/registry.hpp"
#include "src/sim/trace.hpp"
#include "tests/scheme_parity_cells.hpp"
#include "tests/scheme_parity_golden.inc"

namespace streamcast::core {
namespace {

/// Parses the golden capture into cell-id -> serialized report text.
std::map<std::string, std::string> parse_golden() {
  std::map<std::string, std::string> golden;
  std::istringstream in(kSchemeParityGolden);
  std::string line;
  std::string id;
  std::string body;
  auto flush = [&] {
    if (!id.empty()) golden[id] = body;
    body.clear();
  };
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      flush();
      id = line.substr(4);
    } else if (!line.empty()) {
      if (!body.empty()) body += '\n';
      body += line;
    }
  }
  flush();
  return golden;
}

TEST(SchemeParity, EveryCellMatchesPreRefactorGolden) {
  const auto golden = parse_golden();
  const auto cells = parity_cells();
  ASSERT_EQ(golden.size(), cells.size())
      << "cell list and golden capture drifted";

  std::vector<SessionConfig> tasks;
  tasks.reserve(cells.size());
  for (const ParityCell& cell : cells) tasks.push_back(cell.cfg);
  const auto results = run::run_sweep(tasks);
  run::require_all(results);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ParityCell& cell = cells[i];
    const auto it = golden.find(cell.id);
    ASSERT_NE(it, golden.end()) << "no golden for cell: " << cell.id;
    EXPECT_EQ(serialize(results[i]), it->second)
        << "parity break in cell: " << cell.id;
  }
}

TEST(SchemeParity, SerialSessionMatchesSweepPath) {
  // One lossless and one lossy cell re-run through the plain session API:
  // run_sweep and run_session must be the same pipeline.
  const auto golden = parse_golden();
  for (const ParityCell& cell : parity_cells()) {
    if (cell.id == "hypercube mode=pre loss=none" ||
        cell.id == "chain mode=pre loss=ge") {
      EXPECT_EQ(serialize(run_session(cell.cfg)), golden.at(cell.id))
          << cell.id;
    }
  }
}

TEST(SchemeRegistry, EnumeratesEverySchemeInOrder) {
  const auto schemes = scheme::all();
  ASSERT_EQ(schemes.size(), 8u);
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(schemes[i].id), i);
    EXPECT_EQ(&scheme::descriptor(schemes[i].id), &schemes[i]);
  }
}

TEST(SchemeRegistry, ParseSchemeIsExactInverseOfSchemeName) {
  for (const scheme::Descriptor& desc : scheme::all()) {
    EXPECT_EQ(scheme_name(desc.id), desc.name);
    EXPECT_EQ(parse_scheme(desc.name), desc.id);
    EXPECT_EQ(parse_scheme(scheme_name(desc.id)), desc.id);
    // The single-cluster label IS the name, so it round-trips too.
    EXPECT_EQ(parse_scheme(scheme_label(desc.id)), desc.id);
  }
  EXPECT_THROW((void)parse_scheme("multitree"), std::invalid_argument);
  EXPECT_THROW((void)parse_scheme(""), std::invalid_argument);
  EXPECT_THROW((void)parse_scheme("hypercube/"), std::invalid_argument);
}

TEST(SchemeRegistry, ParseSchemeRejectsMalformedLabels) {
  // Multi-cluster report labels ("<name> xK clusters") are display strings,
  // not names: parse_scheme must reject every decorated or mangled form for
  // every registered scheme, not silently strip the suffix.
  for (const scheme::Descriptor& desc : scheme::all()) {
    const std::string name = desc.name;
    for (const std::string& bad : {
             scheme_label(desc.id, 2),    // "name x2 clusters"
             scheme_label(desc.id, 999),  // huge cluster count
             name + " x clusters",        // missing count
             name + " x2",                // missing the word
             name + " x2 cluster",        // singular
             name + "  x2 clusters",      // doubled space
             name + " X2 clusters",       // wrong case
             " " + name,                  // leading space
             name + " ",                  // trailing space
             name + "x2 clusters",        // no separator
         }) {
      EXPECT_THROW((void)parse_scheme(bad), std::invalid_argument)
          << "accepted: '" << bad << "'";
    }
  }
}

TEST(SchemeRegistry, SchemeLabelCoversBothReportForms) {
  EXPECT_EQ(scheme_label(Scheme::kChain), "chain");
  EXPECT_EQ(scheme_label(Scheme::kMultiTreeGreedy, 1), "multi-tree/greedy");
  EXPECT_EQ(scheme_label(Scheme::kMultiTreeGreedy, 3),
            "multi-tree/greedy x3 clusters");
  EXPECT_EQ(scheme_label(Scheme::kHypercube, 4), "hypercube x4 clusters");
}

TEST(SchemeRegistry, CapabilitiesMatchLegacyDispatch) {
  // Multi-cluster: the legacy switch accepted exactly greedy and hypercube.
  for (const scheme::Descriptor& desc : scheme::all()) {
    const bool legacy_ok = desc.id == Scheme::kMultiTreeGreedy ||
                           desc.id == Scheme::kHypercube;
    EXPECT_EQ(desc.caps.multicluster, legacy_ok) << desc.name;
    SessionConfig cfg{.scheme = desc.id, .n = 8, .d = 2, .clusters = 2,
                      .big_d = 3, .t_c = 4};
    if (legacy_ok) {
      EXPECT_NO_THROW(run_session(cfg)) << desc.name;
    } else {
      EXPECT_THROW(run_session(cfg), std::invalid_argument) << desc.name;
    }
  }
  // Live stream modes: multi-tree only.
  for (const scheme::Descriptor& desc : scheme::all()) {
    const bool is_multitree = desc.id == Scheme::kMultiTreeStructured ||
                              desc.id == Scheme::kMultiTreeGreedy;
    EXPECT_EQ(desc.caps.live_modes, is_multitree) << desc.name;
  }
  // Dense links (newest-only forwarders): the legacy lossy path set this
  // for chain and single-tree; demand-driven gap sweeping for hypercubes.
  EXPECT_TRUE(scheme::descriptor(Scheme::kChain).caps.dense_links);
  EXPECT_TRUE(scheme::descriptor(Scheme::kSingleTree).caps.dense_links);
  EXPECT_FALSE(scheme::descriptor(Scheme::kMultiTreeGreedy).caps.dense_links);
  EXPECT_TRUE(scheme::descriptor(Scheme::kHypercube).caps.demand_driven);
  EXPECT_TRUE(
      scheme::descriptor(Scheme::kHypercubeGrouped).caps.demand_driven);
  EXPECT_FALSE(scheme::descriptor(Scheme::kChain).caps.demand_driven);
  // Churn adaptation: exactly the Zhu-Hajek dynamic forest.
  for (const scheme::Descriptor& desc : scheme::all()) {
    EXPECT_EQ(desc.caps.churn, desc.id == Scheme::kDynamicTrees)
        << desc.name;
  }
}

TEST(SchemeRegistry, LiveModeCellsDifferOnlyForLiveSchemes) {
  // The mode flag must change the schedule exactly when caps.live_modes:
  // for everyone else the pre/live cells lock onto one golden.
  for (const scheme::Descriptor& desc : scheme::all()) {
    const NodeKey n = desc.caps.degree_sweep ? NodeKey{14} : NodeKey{9};
    const int d = desc.caps.degree_sweep ? 2 : 1;
    SessionConfig pre{.scheme = desc.id, .n = n, .d = d,
                      .mode = multitree::StreamMode::kPreRecorded};
    SessionConfig live = pre;
    live.mode = multitree::StreamMode::kLivePipelined;
    const auto a = serialize(run_session(pre));
    const auto b = serialize(run_session(live));
    if (desc.caps.live_modes) {
      EXPECT_NE(a, b) << desc.name;
    } else {
      EXPECT_EQ(a, b) << desc.name;
    }
  }
}

TEST(SchemeRegistry, AuditedRunsAreByteIdenticalToUnaudited) {
  // The auditor is an observer: switching it on must not perturb a single
  // byte of the report, on the single-cluster, lossy, and multi-cluster
  // paths alike (audited-node selection included).
  std::vector<SessionConfig> cfgs;
  cfgs.push_back(SessionConfig{.scheme = Scheme::kMultiTreeGreedy, .n = 21,
                               .d = 2});
  cfgs.push_back(SessionConfig{.scheme = Scheme::kMultiTreeGreedy, .n = 8,
                               .d = 2, .clusters = 3, .big_d = 3, .t_c = 4});
  cfgs.push_back(SessionConfig{.scheme = Scheme::kHypercube, .n = 7, .d = 1,
                               .clusters = 4, .big_d = 3, .t_c = 5});
  SessionConfig lossy{.scheme = Scheme::kHypercube, .n = 21, .d = 1};
  lossy.loss.model = loss::ErasureKind::kBernoulli;
  lossy.loss.rate = 0.08;
  lossy.loss.seed = 0xd00d;
  cfgs.push_back(lossy);
  for (SessionConfig cfg : cfgs) {
    cfg.audit = false;
    SessionConfig audited = cfg;
    audited.audit = true;
    EXPECT_EQ(serialize(run_session(cfg)), serialize(run_session(audited)))
        << scheme_label(cfg.scheme, cfg.clusters);
  }
}

TEST(RunPipeline, DirectUseMatchesSessionAndCarriesTrace) {
  // The pipeline is usable standalone: build an overlay from the registry,
  // attach a caller-owned trace, and reproduce the session's report.
  const SessionConfig cfg{.scheme = Scheme::kChain, .n = 12, .d = 1};
  scheme::Overlay overlay = scheme::descriptor(cfg.scheme).build(cfg);

  sim::Trace trace;
  ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = cfg.n + 1;
  spec.trace = &trace;

  RunPipeline pipeline(*overlay.topology, *overlay.protocol, spec);
  pipeline.run(overlay.window + overlay.slack);

  std::vector<NodeKey> receivers;
  for (NodeKey x = 1; x <= cfg.n; ++x) receivers.push_back(x);
  const QosReport direct =
      pipeline.aggregate({.label = scheme_label(cfg.scheme),
                          .report_n = cfg.n,
                          .d = cfg.d,
                          .receivers = receivers});

  SessionConfig plain = cfg;
  plain.audit = false;
  EXPECT_EQ(serialize(direct), serialize(run_session(plain)));
  EXPECT_FALSE(trace.all().empty());
  EXPECT_EQ(trace.all().size(), direct.transmissions);
}

TEST(RunPipeline, LossSummaryRequiresLossyWiring) {
  const SessionConfig cfg{.scheme = Scheme::kChain, .n = 4, .d = 1};
  scheme::Overlay overlay = scheme::descriptor(cfg.scheme).build(cfg);
  ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = cfg.n + 1;
  RunPipeline pipeline(*overlay.topology, *overlay.protocol, spec);
  pipeline.run(overlay.window + overlay.slack);
  const std::unique_ptr<policy::StartupPolicy> fixed =
      policy::startup_policy("fixed").make(cfg.startup);
  EXPECT_THROW((void)pipeline.loss_summary(cfg.loss, *fixed, 1, cfg.n, 0),
               std::logic_error);
}

}  // namespace
}  // namespace streamcast::core
