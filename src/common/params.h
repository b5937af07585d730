// User-facing mining parameters (Table 2 of the paper) and their validation.

#ifndef FCP_COMMON_PARAMS_H_
#define FCP_COMMON_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/types.h"

namespace fcp {

/// The thresholds that define a frequent co-occurrence pattern (Definitions
/// 2-3 of the paper) plus operational knobs of the miners.
///
/// - `xi`    (ξ): maximum time span of a co-occurrence inside one stream; also
///               the span bound of a segment (Definition 5).
/// - `tau`   (τ): maximum global time interval covering the appearances of a
///               pattern across streams. Must satisfy tau >= xi.
/// - `theta` (θ): minimum number of *distinct* streams a pattern must appear
///               in to be frequent.
/// - `max_pattern_size` (k): miners enumerate FCPs with up to this many
///               objects. 0 means "unbounded" (mine all sizes).
/// - `min_pattern_size`: smallest pattern size to report. The paper reports
///               FCP_1 upward; many applications only care about size >= 2.
struct MiningParams {
  DurationMs xi = Seconds(60);
  DurationMs tau = Minutes(30);
  uint32_t theta = 3;
  uint32_t max_pattern_size = 5;
  uint32_t min_pattern_size = 1;

  /// Hard cap on the number of objects in one segment that the miners will
  /// consider when building candidate patterns. Extremely dense segments
  /// (hundreds of objects within ξ) would otherwise blow up the Apriori
  /// lattice; real deployments bound this. 0 disables the cap.
  uint32_t max_segment_objects = 0;

  /// Returns OK iff the parameter combination is meaningful.
  Status Validate() const;

  /// Human-readable one-liner, e.g. "xi=60s tau=30min theta=3 k<=5".
  std::string ToString() const;

  friend bool operator==(const MiningParams&, const MiningParams&) = default;
};

}  // namespace fcp

#endif  // FCP_COMMON_PARAMS_H_
