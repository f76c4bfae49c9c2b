#include "src/util/budget.hpp"

namespace streamcast::util {

namespace {

std::string format_message(std::string_view component, std::size_t requested,
                           std::size_t used, std::size_t limit) {
  std::string msg = "memory budget exceeded: ";
  msg += component;
  msg += " needs " + std::to_string(requested) + " B with " +
         std::to_string(used) + " B already charged (budget " +
         std::to_string(limit) + " B)";
  return msg;
}

}  // namespace

BudgetExceeded::BudgetExceeded(std::string_view component,
                               std::size_t requested, std::size_t used,
                               std::size_t limit)
    : std::runtime_error(format_message(component, requested, used, limit)),
      component_(component),
      requested_(requested),
      used_(used),
      limit_(limit) {}

void BudgetLedger::charge(std::string_view component, std::size_t bytes) {
  const std::lock_guard lock(mutex_);
  if (bytes > limit_ - used_) {  // used_ <= limit_ always, so no underflow
    throw BudgetExceeded(component, bytes, used_, limit_);
  }
  used_ += bytes;
  if (used_ > peak_) peak_ = used_;
}

void BudgetLedger::release(std::size_t bytes) {
  const std::lock_guard lock(mutex_);
  used_ = bytes > used_ ? 0 : used_ - bytes;
}

}  // namespace streamcast::util
