// Monotonic time: the process-wide nanosecond clock and the Stopwatch the
// benches and the Fig. 8 workload harness time with.

#ifndef FCP_UTIL_STOPWATCH_H_
#define FCP_UTIL_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace fcp {

/// Steady-clock nanoseconds. The one timestamp source shared by trace
/// events, profiler wait timing, the watchdog and the router's delivery
/// stamps, so intervals taken across those layers subtract meaningfully.
inline int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic stopwatch. Start() (or construction) marks t0; Elapsed*() report
/// time since t0.
class Stopwatch {
 public:
  Stopwatch() { Start(); }

  void Start() { start_ns_ = MonotonicNowNs(); }

  int64_t ElapsedNanos() const { return MonotonicNowNs() - start_ns_; }
  double ElapsedSeconds() const { return ElapsedNanos() * 1e-9; }
  double ElapsedMillis() const { return ElapsedNanos() * 1e-6; }

 private:
  int64_t start_ns_ = 0;
};

}  // namespace fcp

#endif  // FCP_UTIL_STOPWATCH_H_
