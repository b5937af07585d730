// The fatal-signal black box: one writer for both recorders (DESIGN.md
// §2.5, §2.9).

#ifndef FCP_OBS_CRASH_DUMP_H_
#define FCP_OBS_CRASH_DUMP_H_

#include <string>

namespace fcp::obs {

/// Installs handlers for SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT that mask
/// SIGPROF, write the flight recorder as Chrome trace JSON ("traceEvents")
/// with prof::CrashJson() as its "profiler" member to `path`, and re-raise
/// with the default disposition, so exit codes and core dumps are unchanged.
/// Best-effort: formatting JSON is not async-signal-safe, but a partial dump
/// beats none. Idempotent; last path wins.
void InstallCrashHandler(const std::string& path);

}  // namespace fcp::obs

#endif  // FCP_OBS_CRASH_DUMP_H_
