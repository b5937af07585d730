// Collects and deduplicates the FCPs emitted by a miner.
//
// A pattern that stays frequent is re-discovered by every later supporting
// segment; applications usually want one alert per episode. The collector
// suppresses re-reports of a pattern until `suppression_window` of event
// time has passed since its last report (0 = report every discovery).

#ifndef FCP_CORE_RESULT_COLLECTOR_H_
#define FCP_CORE_RESULT_COLLECTOR_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "core/fcp.h"

namespace fcp {

class ResultCollector {
 public:
  /// `suppression_window`: minimum event time between two reports of the
  /// same pattern (measured trigger-to-trigger on window_end).
  explicit ResultCollector(DurationMs suppression_window = 0)
      : suppression_window_(suppression_window) {}

  /// Offers a discovery; returns true iff it was accepted (not suppressed).
  bool Offer(const Fcp& fcp);

  /// Offer() split in two, for a caller that stores accepted discoveries
  /// on another thread than it decides them: Admit() makes the suppression
  /// decision and its bookkeeping, and returns true iff `fcp` is accepted;
  /// Keep() appends an accepted one to results(). Keep() must see the
  /// accepted discoveries in the order Admit() accepted them.
  bool Admit(const Fcp& fcp);
  void Keep(Fcp&& fcp) { results_.push_back(std::move(fcp)); }

  /// Offers a batch; accepted ones are appended to `accepted` if non-null.
  void OfferAll(const std::vector<Fcp>& fcps,
                std::vector<Fcp>* accepted = nullptr);

  /// All accepted discoveries, in acceptance order.
  const std::vector<Fcp>& results() const { return results_; }

  /// Number of *distinct patterns* seen, per pattern size (Figs. 9-10 plot
  /// these counts). Key = pattern size k.
  const std::map<uint32_t, uint64_t>& distinct_patterns_by_size() const {
    return distinct_by_size_;
  }

  uint64_t total_offered() const { return offered_; }
  uint64_t total_suppressed() const { return suppressed_; }

  void Clear();

 private:
  DurationMs suppression_window_;
  std::unordered_map<Pattern, Timestamp, IdVectorHash> last_report_;
  std::vector<Fcp> results_;
  std::map<uint32_t, uint64_t> distinct_by_size_;
  uint64_t offered_ = 0;
  uint64_t suppressed_ = 0;
};

}  // namespace fcp

#endif  // FCP_CORE_RESULT_COLLECTOR_H_
