#include "src/core/report.hpp"

#include <ostream>
#include <sstream>

#include "src/util/table.hpp"

namespace streamcast::core {

std::string QosReport::summary() const {
  std::ostringstream os;
  os << scheme << " (N=" << n << ", d=" << d << "): worst delay "
     << worst_delay << " slots, avg delay " << util::cell(average_delay, 2)
     << ", max buffer " << max_buffer << " pkts, max neighbors "
     << max_neighbors << ", " << transmissions << " transmissions";
  if (drops > 0 || retransmissions > 0) {
    os << ", " << drops << " drops, " << retransmissions << " retransmissions";
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const QosReport& r) {
  return os << r.summary();
}

namespace {

std::string fp(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string serialize(const QosReport& r) {
  std::ostringstream os;
  os << "qos scheme=" << r.scheme << " n=" << r.n << " d=" << r.d
     << " worst_delay=" << r.worst_delay
     << " average_delay=" << fp(r.average_delay)
     << " max_buffer=" << r.max_buffer
     << " average_buffer=" << fp(r.average_buffer)
     << " max_neighbors=" << r.max_neighbors
     << " average_neighbors=" << fp(r.average_neighbors)
     << " transmissions=" << r.transmissions
     << " slots_simulated=" << r.slots_simulated << " drops=" << r.drops
     << " retransmissions=" << r.retransmissions;
  return os.str();
}

std::string serialize(const RunResult& r) {
  if (!r.loss) return serialize(r.qos);
  const LossSummary& l = *r.loss;
  std::ostringstream os;
  os << serialize(r.qos) << "\nloss drops=" << l.drops
     << " retransmissions=" << l.retransmissions
     << " parity_transmissions=" << l.parity_transmissions
     << " fec_decodes=" << l.fec_decodes << " suppressed=" << l.suppressed
     << " nacks=" << l.nacks
     << " redundancy_overhead=" << fp(l.redundancy_overhead)
     << " all_gap_free=" << (l.all_gap_free ? 1 : 0) << " stalls=" << l.stalls
     << " stall_slots=" << l.stall_slots << " undecodable=" << l.undecodable
     << " drain_slots=" << l.drain_slots
     << " incomplete_nodes=" << l.incomplete_nodes;
  return os.str();
}

std::string serialize(const StartupSummary& s) {
  std::ostringstream os;
  os << "startup policy=" << s.policy << " max_start=" << s.max_start
     << " average_start=" << fp(s.average_start)
     << " earliest_start=" << s.earliest_start << " stalls=" << s.stalls
     << " stall_slots=" << s.stall_slots << " undecodable=" << s.undecodable
     << " max_finish=" << s.max_finish;
  return os.str();
}

}  // namespace streamcast::core
