#include "core/result_collector.h"

namespace fcp {

bool ResultCollector::Admit(const Fcp& fcp) {
  ++offered_;
  auto [it, is_new] = last_report_.try_emplace(fcp.objects, fcp.window_end);
  if (is_new) {
    ++distinct_by_size_[static_cast<uint32_t>(fcp.objects.size())];
  } else {
    if (suppression_window_ > 0 &&
        fcp.window_end - it->second < suppression_window_) {
      ++suppressed_;
      return false;
    }
    it->second = fcp.window_end;
  }
  return true;
}

bool ResultCollector::Offer(const Fcp& fcp) {
  if (!Admit(fcp)) return false;
  results_.push_back(fcp);
  return true;
}

void ResultCollector::OfferAll(const std::vector<Fcp>& fcps,
                               std::vector<Fcp>* accepted) {
  for (const Fcp& fcp : fcps) {
    if (Offer(fcp) && accepted != nullptr) accepted->push_back(fcp);
  }
}

void ResultCollector::Clear() {
  last_report_.clear();
  results_.clear();
  distinct_by_size_.clear();
  offered_ = 0;
  suppressed_ = 0;
}

}  // namespace fcp
