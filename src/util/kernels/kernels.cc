#include "util/kernels/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/kernels/kernels_generic.h"

namespace fcp::kernels {

namespace {

size_t ScalarIntersectU32(const uint32_t* a, size_t a_size, const uint32_t* b,
                          size_t b_size, uint32_t* out) {
  return generic::IntersectLinear(a, a_size, b, b_size, out);
}

size_t ScalarIntersectU64(const uint64_t* a, size_t a_size, const uint64_t* b,
                          size_t b_size, uint64_t* out) {
  return generic::IntersectLinear(a, a_size, b, b_size, out);
}

const KernelOps kScalarOps = {
    &generic::PopcountAtLeast, &generic::AndPopcountAtLeast,
    &ScalarIntersectU32,       &ScalarIntersectU64,
    KernelLevel::kScalar,      "scalar",
};

bool CpuSupports(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return true;
    case KernelLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return internal::Avx2Ops() != nullptr && __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
  }
  return false;
}

const KernelOps* TableFor(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return &kScalarOps;
    case KernelLevel::kAvx2:
      return internal::Avx2Ops();
  }
  return &kScalarOps;
}

std::atomic<const KernelOps*> g_active{nullptr};
std::once_flag g_init_once;

/// First-use initialization: honor FCP_KERNEL if set, else auto.
void InitActive() {
  const char* env = std::getenv("FCP_KERNEL");
  KernelLevel level = BestSupportedLevel();
  if (env != nullptr && env[0] != '\0') {
    const std::string_view name(env);
    if (name == "scalar") {
      level = KernelLevel::kScalar;
    } else if (name == "avx2") {
      level = KernelLevel::kAvx2;
    } else if (name != "auto") {
      std::fprintf(stderr,
                   "fcp: ignoring unknown FCP_KERNEL='%s' "
                   "(want auto|scalar|avx2)\n",
                   env);
    }
  }
  if (!CpuSupports(level)) {
    const KernelLevel best = BestSupportedLevel();
    std::fprintf(stderr,
                 "fcp: kernel level '%.*s' unsupported on this CPU/build; "
                 "using '%.*s'\n",
                 static_cast<int>(KernelLevelName(level).size()),
                 KernelLevelName(level).data(),
                 static_cast<int>(KernelLevelName(best).size()),
                 KernelLevelName(best).data());
    level = best;
  }
  g_active.store(TableFor(level), std::memory_order_release);
}

}  // namespace

namespace internal {
const KernelOps* ScalarOps() { return &kScalarOps; }
}  // namespace internal

std::string_view KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool LevelSupported(KernelLevel level) { return CpuSupports(level); }

KernelLevel BestSupportedLevel() {
  if (CpuSupports(KernelLevel::kAvx2)) return KernelLevel::kAvx2;
  return KernelLevel::kScalar;
}

KernelLevel SetKernelLevel(KernelLevel level) {
  std::call_once(g_init_once, InitActive);
  if (!CpuSupports(level)) {
    const KernelLevel best = BestSupportedLevel();
    std::fprintf(stderr,
                 "fcp: kernel level '%.*s' unsupported on this CPU/build; "
                 "using '%.*s'\n",
                 static_cast<int>(KernelLevelName(level).size()),
                 KernelLevelName(level).data(),
                 static_cast<int>(KernelLevelName(best).size()),
                 KernelLevelName(best).data());
    level = best;
  }
  g_active.store(TableFor(level), std::memory_order_release);
  return level;
}

bool SetKernelLevelFromString(std::string_view name) {
  if (name == "auto") {
    SetKernelLevel(BestSupportedLevel());
    return true;
  }
  if (name == "scalar") {
    SetKernelLevel(KernelLevel::kScalar);
    return true;
  }
  if (name == "avx2") {
    SetKernelLevel(KernelLevel::kAvx2);
    return true;
  }
  return false;
}

KernelLevel ActiveLevel() { return Ops().level; }

const KernelOps& Ops() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    std::call_once(g_init_once, InitActive);
    ops = g_active.load(std::memory_order_acquire);
  }
  return *ops;
}

const KernelOps& OpsFor(KernelLevel level) {
  if (!CpuSupports(level)) return kScalarOps;
  return *TableFor(level);
}

}  // namespace fcp::kernels
