#include "obs/crash_dump.h"

#include <signal.h>

#include <csignal>
#include <cstdio>
#include <cstring>

#include "prof/prof.h"
#include "telemetry/trace.h"

namespace fcp::obs {
namespace {

constexpr size_t kCrashPathCap = 1024;
char g_crash_path[kCrashPathCap] = {};

void CrashHandler(int signum) {
  // Restore default disposition first so a second fault (or the re-raise
  // below) terminates instead of recursing.
  std::signal(signum, SIG_DFL);
  // Mask SIGPROF for the duration of the dump: the sampling profiler's
  // per-thread timers keep firing while we serialize, and a sample taken
  // inside the (already not async-signal-safe) dump path helps nobody.
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &block, nullptr);
  if (g_crash_path[0] != '\0') {
    std::string doc = trace::SerializeChromeTrace(trace::Snapshot());
    // The Chrome trace is one JSON object; the profiler state joins it as
    // a sibling of "traceEvents", so strict trace readers still accept it.
    const size_t close = doc.rfind('}');
    if (close != std::string::npos) {
      doc.insert(close, ", \"profiler\": " + prof::CrashJson());
    }
    if (std::FILE* f = std::fopen(g_crash_path, "w")) {
      std::fwrite(doc.data(), 1, doc.size(), f);
      std::fclose(f);
    }
    std::fprintf(stderr, "fcp: fatal signal %d, crash dump -> %s\n", signum,
                 g_crash_path);
  }
  raise(signum);
}

}  // namespace

void InstallCrashHandler(const std::string& path) {
  std::strncpy(g_crash_path, path.c_str(), kCrashPathCap - 1);
  g_crash_path[kCrashPathCap - 1] = '\0';
  for (const int signum : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    std::signal(signum, CrashHandler);
  }
}

}  // namespace fcp::obs
