// Pattern and result types of the public mining API.

#ifndef FCP_CORE_FCP_H_
#define FCP_CORE_FCP_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace fcp {

/// A co-occurrence pattern: a set of objects, stored as a sorted vector of
/// distinct ObjectIds (the canonical form used everywhere in the library).
using Pattern = std::vector<ObjectId>;

/// One frequent co-occurrence pattern discovery (Definition 3).
///
/// Emitted by a miner at the moment the pattern's theta-th supporting stream
/// materializes (i.e., when the triggering segment completes). The same
/// pattern may be re-emitted by later triggers while it stays frequent;
/// ResultCollector deduplicates if the application wants unique patterns.
struct Fcp {
  /// The pattern (sorted, distinct).
  Pattern objects;

  /// The distinct streams supporting the discovery (sorted). Size >= theta.
  std::vector<StreamId> streams;

  /// Time interval covering all supporting occurrences (segment
  /// granularity). window_end - window_start <= tau.
  Timestamp window_start = 0;
  Timestamp window_end = 0;

  /// The segment whose completion triggered the discovery.
  SegmentId trigger = kInvalidSegmentId;

  /// "{o1,o2}x5@[t0,t1]".
  std::string DebugString() const;
};

/// Canonical ordering for test comparisons: by pattern, then trigger.
bool FcpLess(const Fcp& a, const Fcp& b);

/// The order every miner emits one trigger's FCPs in: by size, then
/// lexicographically. The sharded engine merges its shards' lists by it.
inline bool EmitOrderLess(std::span<const ObjectId> a,
                          std::span<const ObjectId> b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace fcp

#endif  // FCP_CORE_FCP_H_
