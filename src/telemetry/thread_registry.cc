#include "telemetry/thread_registry.h"

#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

namespace fcp::telemetry {
namespace detail {
constinit thread_local ThreadRecord* tls_record = nullptr;
}  // namespace detail

namespace {

struct Registry {
  std::mutex mu;
  std::vector<ThreadRecord*> threads;
  int sampling_hz = 0;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

/// Set while this thread holds the registry lock or allocates a record:
/// RegisterThisThread must not re-enter then.
thread_local bool tls_in_registry = false;

bool ArmTimerLocked(ThreadRecord* rec, int hz) {
  if (rec->retired || !rec->profiled) return false;
  if (rec->timer_armed) return true;
  if (rec->samples.load(std::memory_order_relaxed) == nullptr) {
    rec->samples.store(new SampleSlot[kSampleRingSlots],
                       std::memory_order_release);
  }
  clockid_t clock;
  if (pthread_getcpuclockid(rec->pthread, &clock) != 0) return false;
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
#if defined(sigev_notify_thread_id)
  sev.sigev_notify_thread_id = rec->tid;
#else
  sev._sigev_un._tid = rec->tid;
#endif
  if (timer_create(clock, &sev, &rec->timer) != 0) return false;
  const long interval_ns = 1000000000L / hz;
  itimerspec its{};
  its.it_interval.tv_sec = interval_ns / 1000000000L;
  its.it_interval.tv_nsec = interval_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(rec->timer, 0, &its, nullptr) != 0) {
    timer_delete(rec->timer);
    return false;
  }
  rec->timer_armed = true;
  return true;
}

void DisarmTimerLocked(ThreadRecord* rec) {
  if (!rec->timer_armed) return;
  timer_delete(rec->timer);
  rec->timer_armed = false;
}

}  // namespace

ThreadRecord* RegisterThisThread() {
  if (detail::tls_record != nullptr || tls_in_registry) {
    return detail::tls_record;
  }
  tls_in_registry = true;
  auto* rec = new ThreadRecord();
  rec->tid = static_cast<pid_t>(syscall(SYS_gettid));
  rec->pthread = pthread_self();
  pthread_attr_t attr;
  if (pthread_getattr_np(rec->pthread, &attr) == 0) {
    void* addr = nullptr;
    size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      rec->stack_lo = reinterpret_cast<uintptr_t>(addr);
      rec->stack_hi = rec->stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  {
    RegistryLock lock;  // clears tls_in_registry on release
    GetRegistry().threads.push_back(rec);
  }
  detail::tls_record = rec;
  return rec;
}

ThreadScope::ThreadScope(const char* name) {
  ThreadRecord* rec = RegisterThisThread();
  if (rec->profiled) return;
  owner_ = true;
  RegistryLock lock;
  std::strncpy(rec->name, name, kThreadNameCap - 1);
  rec->profiled = true;
  if (GetRegistry().sampling_hz != 0) {
    ArmTimerLocked(rec, GetRegistry().sampling_hz);
  }
}

ThreadScope::~ThreadScope() {
  if (!owner_) return;
  ThreadRecord* rec = detail::tls_record;
  RegistryLock lock;
  // The timer goes before the record detaches, so a straggler SIGPROF finds
  // no record.
  DisarmTimerLocked(rec);
  rec->retired = true;
  detail::tls_record = nullptr;
}

RegistryLock::RegistryLock() : lock_(GetRegistry().mu) {
  tls_in_registry = true;
}

RegistryLock::~RegistryLock() { tls_in_registry = false; }

const std::vector<ThreadRecord*>& RegistryLock::threads() const {
  return GetRegistry().threads;
}

void SetThreadSamplingHz(int hz) {
  RegistryLock lock;
  GetRegistry().sampling_hz = hz;
  for (ThreadRecord* rec : lock.threads()) {
    if (hz != 0) {
      ArmTimerLocked(rec, hz);
    } else {
      DisarmTimerLocked(rec);
    }
  }
}

int ThreadSamplingHz() {
  RegistryLock lock;
  return GetRegistry().sampling_hz;
}

}  // namespace fcp::telemetry
