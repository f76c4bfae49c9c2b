#include "src/audit/report.hpp"

namespace streamcast::audit {

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kSendCapacity:
      return "send-capacity";
    case ViolationKind::kRecvCapacity:
      return "recv-capacity";
    case ViolationKind::kScheduleCollision:
      return "schedule-collision";
    case ViolationKind::kLatencyMismatch:
      return "latency-mismatch";
    case ViolationKind::kDuplicateDelivery:
      return "duplicate-delivery";
    case ViolationKind::kDelayBound:
      return "delay-bound";
    case ViolationKind::kBufferBound:
      return "buffer-bound";
    case ViolationKind::kIncompleteWindow:
      return "incomplete-window";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::string s(violation_kind_name(kind));
  s += " at slot " + std::to_string(slot) + ", node " + std::to_string(node) +
       ": expected " + std::to_string(expected) + ", got " +
       std::to_string(actual);
  if (!detail.empty()) s += " (" + detail + ")";
  return s;
}

std::string AuditReport::to_string() const {
  std::string s = "audit: " + std::to_string(slots_audited) + " slots, " +
                  std::to_string(deliveries_audited) + " deliveries, " +
                  std::to_string(drops_audited) + " drops";
  if (ok()) return s + ", all invariants hold";
  s += ", " +
       std::to_string(static_cast<std::int64_t>(violations.size()) +
                      suppressed) +
       " violation(s)";
  for (const Violation& v : violations) s += "\n  " + v.to_string();
  if (suppressed > 0) {
    s += "\n  ... and " + std::to_string(suppressed) + " more";
  }
  return s;
}

}  // namespace streamcast::audit
