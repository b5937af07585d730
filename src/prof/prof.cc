// fcp::prof implementation: the SIGPROF handler, the stack-trie collector
// and lazy symbolization (DESIGN.md §2.9). Sample rings, timers and wait
// slots live on the thread records of telemetry/thread_registry.h.
//
// Layering of signal-safety, strictest first:
//   1. SigprofHandler: atomics + a bounds-checked frame-pointer walk. No
//      locks, no allocation, no library calls. Sanitizer instrumentation is
//      disabled on the walker so raw stack loads are not checked against
//      shadow memory.
//   2. RecordWaitNs / the heap hook: run in normal thread context (not a
//      signal), use relaxed atomics / a recursion-guarded mutex.
//   3. Everything else (collection, symbolization, rendering): ordinary
//      code under the profiler mutex (then the thread registry's), allocates
//      freely, never called from the hot path.

#include "prof/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <ucontext.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/thread_registry.h"
#include "util/alloc_hook.h"

#if defined(__GNUC__) || defined(__clang__)
#define FCP_NO_SANITIZE \
  __attribute__((no_sanitize("address", "thread", "undefined")))
#else
#define FCP_NO_SANITIZE
#endif

namespace fcp::prof {
namespace {

using telemetry::kMaxFrames;
using telemetry::kSampleRingSlots;
using telemetry::SampleSlot;
using telemetry::ThreadRecord;
using telemetry::WaitSlot;

// --- Stack trie. -----------------------------------------------------------

struct TrieNode {
  uintptr_t pc = 0;
  uint64_t self = 0;
  std::map<uintptr_t, size_t> kids;  ///< pc -> node index
};

struct Trie {
  /// Per thread-name root: name -> node index (node.pc unused at roots).
  std::map<std::string, size_t> roots;
  std::vector<TrieNode> nodes;

  size_t Child(size_t parent, uintptr_t pc) {
    auto [it, inserted] = nodes[parent].kids.try_emplace(pc, nodes.size());
    if (inserted) {
      const size_t idx = it->second;
      nodes.emplace_back();
      nodes[idx].pc = pc;
      return idx;
    }
    return it->second;
  }

  size_t Root(const std::string& name) {
    auto [it, inserted] = roots.try_emplace(name, nodes.size());
    if (inserted) nodes.emplace_back();
    return it->second;
  }

  /// Adds one sample under `root`: `pcs[0]` is the leaf; insertion is
  /// root-first.
  void Add(size_t root, const uintptr_t* pcs, uint32_t depth,
           uint64_t weight) {
    size_t node = root;
    for (uint32_t i = depth; i-- > 0;) node = Child(node, pcs[i]);
    nodes[node].self += weight;
  }
};

// --- Symbolization. --------------------------------------------------------

/// The main executable's .symtab, loaded lazily: STT_FUNC symbols sorted by
/// (unbiased) address. dladdr only sees .dynsym, which misses every
/// internal-linkage function; parsing the symtab directly is what makes the
/// >= 95% symbolization bar reachable without external tooling.
struct MainSymtab {
  struct Sym {
    uintptr_t addr = 0;
    uintptr_t size = 0;
    uint32_t name = 0;  ///< offset into strtab
  };
  std::vector<Sym> syms;
  std::string strtab;
  uintptr_t bias = 0;
  bool loaded = false;
  /// Every loaded module's address range, so frames that neither the
  /// symtab nor dladdr can name still render as "[libc.so.6]" rather than
  /// a raw address (module identity is the useful 95% of the answer for
  /// libc thunks, vdso entries and PLT stubs).
  struct Module {
    uintptr_t lo = 0, hi = 0;
    std::string name;
  };
  std::vector<Module> modules;
};

int PhdrScanCallback(dl_phdr_info* info, size_t, void* data) {
  auto* out = static_cast<MainSymtab*>(data);
  // The first entry is the main executable; its dlpi_addr is the PIE load
  // bias (0 for non-PIE).
  if (out->modules.empty()) out->bias = info->dlpi_addr;
  MainSymtab::Module mod;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    const uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
    const uintptr_t hi = lo + ph.p_memsz;
    if (mod.lo == 0 || lo < mod.lo) mod.lo = lo;
    if (hi > mod.hi) mod.hi = hi;
  }
  const char* name = info->dlpi_name;
  if (name == nullptr || name[0] == '\0') {
    mod.name = out->modules.empty() ? "exe" : "anon";
  } else {
    const char* slash = std::strrchr(name, '/');
    mod.name = slash != nullptr ? slash + 1 : name;
  }
  out->modules.push_back(std::move(mod));
  return 0;  // keep iterating
}

void LoadMainSymtab(MainSymtab* out) {
  out->loaded = true;
  dl_iterate_phdr(PhdrScanCallback, out);
  std::FILE* f = std::fopen("/proc/self/exe", "rb");
  if (f == nullptr) return;
  auto read_at = [&](long off, void* buf, size_t n) {
    return std::fseek(f, off, SEEK_SET) == 0 && std::fread(buf, 1, n, f) == n;
  };
  Elf64_Ehdr ehdr;
  if (!read_at(0, &ehdr, sizeof(ehdr)) ||
      std::memcmp(ehdr.e_ident, ELFMAG, SELFMAG) != 0 ||
      ehdr.e_ident[EI_CLASS] != ELFCLASS64) {
    std::fclose(f);
    return;
  }
  std::vector<Elf64_Shdr> shdrs(ehdr.e_shnum);
  if (!read_at(static_cast<long>(ehdr.e_shoff), shdrs.data(),
               shdrs.size() * sizeof(Elf64_Shdr))) {
    std::fclose(f);
    return;
  }
  for (const Elf64_Shdr& sh : shdrs) {
    if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= shdrs.size()) continue;
    const Elf64_Shdr& str = shdrs[sh.sh_link];
    std::vector<Elf64_Sym> raw(sh.sh_size / sizeof(Elf64_Sym));
    out->strtab.resize(str.sh_size);
    if (!read_at(static_cast<long>(sh.sh_offset), raw.data(),
                 raw.size() * sizeof(Elf64_Sym)) ||
        !read_at(static_cast<long>(str.sh_offset), out->strtab.data(),
                 out->strtab.size())) {
      out->strtab.clear();
      break;
    }
    out->syms.reserve(raw.size());
    for (const Elf64_Sym& s : raw) {
      if (ELF64_ST_TYPE(s.st_info) != STT_FUNC || s.st_value == 0) continue;
      if (s.st_name >= out->strtab.size()) continue;
      out->syms.push_back({static_cast<uintptr_t>(s.st_value),
                           static_cast<uintptr_t>(s.st_size), s.st_name});
    }
    std::sort(out->syms.begin(), out->syms.end(),
              [](const MainSymtab::Sym& a, const MainSymtab::Sym& b) {
                return a.addr < b.addr;
              });
    break;
  }
  std::fclose(f);
}

/// Demangles and compacts: parameter list dropped, remaining spaces
/// removed, so a frame never contains the folded format's separators.
std::string TidyName(const char* mangled) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name = (status == 0 && demangled != nullptr) ? demangled
                                                           : mangled;
  std::free(demangled);
  // Cut the parameter list but not "operator()" — find the first '(' that
  // is not part of an operator name.
  size_t cut = std::string::npos;
  for (size_t i = 0; i < name.size(); ++i) {
    if (name[i] != '(') continue;
    if (i >= 8 && name.compare(i - 8, 8, "operator") == 0) {
      i += 1;  // skip the matching ')'
      continue;
    }
    cut = i;
    break;
  }
  if (cut != std::string::npos) name.resize(cut);
  name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
  std::replace(name.begin(), name.end(), ';', ':');
  return name;
}

// --- Global profiler state. ------------------------------------------------

struct HeapSite {
  uint64_t bytes = 0;
  uint64_t count = 0;
};

struct ProfState {
  std::mutex mu;  ///< guards everything below plus trie/symbol state
  int last_hz = 100;       ///< last armed rate: the wait-unit scaling basis
  uint64_t drops = 0;      ///< wrap + torn-slot casualties, collector-side
  uint64_t collected = 0;  ///< samples folded into the trie
  uint64_t live_threads = 0;  ///< live profiled threads at the last collect
  Trie trie;
  MainSymtab symtab;
  std::unordered_map<uintptr_t, std::string> symbol_cache;
  bool sigaction_installed = false;

  // Profiler gauges (nullable; bound by the first Start with a registry).
  telemetry::Gauge* samples_gauge = nullptr;
  telemetry::Gauge* drops_gauge = nullptr;
  telemetry::Gauge* threads_gauge = nullptr;
  telemetry::Gauge* symcache_gauge = nullptr;

  // Heap profiler: folded stacks keyed by the symbolized frame path.
  std::mutex heap_mu;
  bool heap_enabled = false;
  size_t heap_sample_bytes = 64 * 1024;
  std::map<std::vector<uintptr_t>, HeapSite> heap_sites;
};

ProfState& State() {
  static ProfState* state = new ProfState();
  return *state;
}

// --- The signal handler. ---------------------------------------------------

/// Walks the frame-pointer chain starting at (pc, fp), bounded by the
/// thread's stack extent. Safe against broken chains: every candidate frame
/// pointer is range- and alignment-checked before it is dereferenced, and
/// the walk only ever moves toward the stack base. Sanitizers are disabled
/// here: the loads are raw stack reads that ASan shadow checks would
/// misjudge and TSan would misreport (same-thread signal context).
FCP_NO_SANITIZE
uint32_t WalkStack(uintptr_t pc, uintptr_t fp, uintptr_t lo, uintptr_t hi,
                   uintptr_t* out) {
  uint32_t depth = 0;
  out[depth++] = pc;
  while (depth < static_cast<uint32_t>(kMaxFrames)) {
    if (fp < lo || fp + 2 * sizeof(uintptr_t) > hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t next_fp = frame[0];
    const uintptr_t ret = frame[1];
    if (ret < 0x1000) break;
    out[depth++] = ret;
    if (next_fp <= fp) break;  // chains must move toward the base
    fp = next_fp;
  }
  return depth;
}

FCP_NO_SANITIZE
void SigprofHandler(int, siginfo_t*, void* ucontext) {
  ThreadRecord* rec = telemetry::ThisThread();
  if (rec == nullptr) return;
  SampleSlot* slots = rec->samples.load(std::memory_order_acquire);
  if (slots == nullptr) return;

  auto* uc = static_cast<ucontext_t*>(ucontext);
  uintptr_t pc = 0, fp = 0, sp = 0;
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  return;  // unsupported architecture: no samples, everything else works
#endif

  uintptr_t pcs[kMaxFrames];
  const uintptr_t lo = sp != 0 ? sp : rec->stack_lo;
  const uint32_t depth = WalkStack(pc, fp, lo, rec->stack_hi, pcs);

  const uint64_t h = rec->sample_head.load(std::memory_order_relaxed);
  SampleSlot& slot = slots[h % kSampleRingSlots];
  slot.depth.store(depth, std::memory_order_relaxed);
  for (uint32_t i = 0; i < depth; ++i) {
    slot.pcs[i].store(pcs[i], std::memory_order_relaxed);
  }
  slot.seq.store(h, std::memory_order_release);
  rec->sample_head.store(h + 1, std::memory_order_release);
}

// --- Signal plumbing. ------------------------------------------------------

void InstallSigactionLocked(ProfState& state) {
  if (state.sigaction_installed) return;
  struct sigaction sa{};
  sa.sa_sigaction = SigprofHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  state.sigaction_installed = true;
}

// --- Collection (profiler and registry locks held). -------------------------

void DrainRecLocked(ProfState& state, ThreadRecord* rec) {
  SampleSlot* slots = rec->samples.load(std::memory_order_acquire);
  if (slots == nullptr) return;
  const uint64_t h = rec->sample_head.load(std::memory_order_acquire);
  uint64_t t = rec->sample_tail.load(std::memory_order_relaxed);
  if (h - t > kSampleRingSlots) {
    state.drops += h - kSampleRingSlots - t;
    t = h - kSampleRingSlots;
  }
  if (t == h) return;
  const size_t root = state.trie.Root(rec->name);
  uintptr_t pcs[kMaxFrames];
  for (uint64_t i = t; i < h; ++i) {
    SampleSlot& slot = slots[i % kSampleRingSlots];
    const uint32_t depth =
        std::min(slot.depth.load(std::memory_order_relaxed),
                 static_cast<uint32_t>(kMaxFrames));
    for (uint32_t k = 0; k < depth; ++k) {
      pcs[k] = slot.pcs[k].load(std::memory_order_relaxed);
    }
    // The writer lapped this slot mid-copy: its payload may mix two
    // samples. Reject it; it is one more wrap casualty.
    if (slot.seq.load(std::memory_order_acquire) != i || depth == 0) {
      ++state.drops;
      continue;
    }
    state.trie.Add(root, pcs, depth, 1);
    ++state.collected;
  }
  rec->sample_tail.store(h, std::memory_order_relaxed);
}

void CollectLocked(ProfState& state) {
  state.live_threads = 0;
  telemetry::RegistryLock lock;
  for (ThreadRecord* rec : lock.threads()) {
    DrainRecLocked(state, rec);
    state.live_threads += rec->profiled && !rec->retired;
  }
  if (state.samples_gauge != nullptr) {
    state.samples_gauge->Set(static_cast<int64_t>(state.collected));
    state.drops_gauge->Set(static_cast<int64_t>(state.drops));
    state.threads_gauge->Set(static_cast<int64_t>(state.live_threads));
    state.symcache_gauge->Set(
        static_cast<int64_t>(state.symbol_cache.size()));
  }
}

const std::string& SymbolizeLocked(ProfState& state, uintptr_t pc) {
  auto it = state.symbol_cache.find(pc);
  if (it != state.symbol_cache.end()) return it->second;
  if (!state.symtab.loaded) LoadMainSymtab(&state.symtab);
  std::string name;
  // Return addresses point one past the call; back up one byte so a call
  // that ends a function does not attribute to the next symbol.
  const uintptr_t lookup = pc - 1;
  const MainSymtab& tab = state.symtab;
  if (!tab.syms.empty() && lookup >= tab.bias) {
    const uintptr_t unbiased = lookup - tab.bias;
    auto sym = std::upper_bound(
        tab.syms.begin(), tab.syms.end(), unbiased,
        [](uintptr_t v, const MainSymtab::Sym& s) { return v < s.addr; });
    if (sym != tab.syms.begin()) {
      --sym;
      const uintptr_t size = sym->size != 0 ? sym->size : 4096;
      if (unbiased < sym->addr + size) {
        name = TidyName(tab.strtab.c_str() + sym->name);
      }
    }
  }
  if (name.empty()) {
    Dl_info info;
    if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
        info.dli_sname != nullptr) {
      name = TidyName(info.dli_sname);
    }
  }
  if (name.empty()) {
    for (const MainSymtab::Module& mod : tab.modules) {
      if (lookup >= mod.lo && lookup < mod.hi) {
        name = "[" + mod.name + "]";
        break;
      }
    }
  }
  if (name.empty()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
    name = buf;
  }
  return state.symbol_cache.emplace(pc, std::move(name)).first->second;
}

void FoldNodeLocked(ProfState& state, size_t node, std::string* path,
                    std::map<std::string, uint64_t>* out) {
  const size_t base = path->size();
  const TrieNode& n = state.trie.nodes[node];
  if (n.self > 0) (*out)[*path] += n.self;
  for (const auto& [pc, kid] : n.kids) {
    path->push_back(';');
    path->append(SymbolizeLocked(state, pc));
    FoldNodeLocked(state, kid, path, out);
    path->resize(base);
  }
}

/// Cumulative folded counts: CPU stacks plus `wait;<tag>` pseudo stacks
/// scaled to sample units so both kinds share one denominator.
std::map<std::string, uint64_t> FoldedCountsLocked(ProfState& state) {
  std::map<std::string, uint64_t> out;
  std::string path;
  for (const auto& [name, root] : state.trie.roots) {
    path.assign(name);
    FoldNodeLocked(state, root, &path, &out);
    path.clear();
  }
  const int hz = state.last_hz;
  telemetry::RegistryLock lock;
  for (const ThreadRecord* rec : lock.threads()) {
    for (const WaitSlot& w : rec->waits) {
      const char* tag = w.tag.load(std::memory_order_acquire);
      if (tag == nullptr) continue;
      const int64_t ns = w.ns.load(std::memory_order_relaxed);
      const uint64_t units = static_cast<uint64_t>(
          static_cast<double>(ns) * hz / 1e9);
      if (units > 0) out[std::string("wait;") + tag] += units;
    }
  }
  return out;
}

std::string RenderFolded(const std::map<std::string, uint64_t>& counts) {
  std::string out;
  for (const auto& [stack, n] : counts) {
    out += stack;
    out += ' ';
    out += std::to_string(n);
    out += '\n';
  }
  return out;
}

// --- Heap sampling hook. ---------------------------------------------------

thread_local int64_t tls_heap_credit = 0;
thread_local bool tls_in_heap_hook = false;

// Keeps this thread's allocations out of HeapHook for its lifetime. Any
// code that allocates while holding heap_mu needs one: a sample coming due
// there would lock heap_mu again on the same thread.
class HeapHookMask {
 public:
  HeapHookMask() : saved_(tls_in_heap_hook) { tls_in_heap_hook = true; }
  ~HeapHookMask() { tls_in_heap_hook = saved_; }
  HeapHookMask(const HeapHookMask&) = delete;
  HeapHookMask& operator=(const HeapHookMask&) = delete;

 private:
  const bool saved_;
};

void HeapHook(std::size_t size) {
  if (tls_in_heap_hook) return;
  tls_heap_credit -= static_cast<int64_t>(size);
  if (tls_heap_credit > 0) return;
  // Everything below may allocate; the mask makes that safe.
  const HeapHookMask mask;
  // The record bounds the walk. None while this thread is inside the
  // registry: skip the sample; the spent credit retries on the next call.
  const ThreadRecord* rec = telemetry::RegisterThisThread();
  if (rec == nullptr) return;
  ProfState& state = State();
  uintptr_t pcs[kMaxFrames];
  const uintptr_t fp =
      reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  const uint32_t depth = WalkStack(
      reinterpret_cast<uintptr_t>(
          __builtin_extract_return_addr(__builtin_return_address(0))),
      fp, fp, rec->stack_hi, pcs);
  {
    std::lock_guard<std::mutex> lock(state.heap_mu);
    if (state.heap_enabled) {
      // Credit the full deficit plus one sampling interval: the expected
      // accounted bytes equal the true allocation volume.
      const uint64_t credited = static_cast<uint64_t>(
          static_cast<int64_t>(state.heap_sample_bytes) - tls_heap_credit);
      HeapSite& site =
          state.heap_sites[std::vector<uintptr_t>(pcs, pcs + depth)];
      site.bytes += credited;
      site.count += 1;
      tls_heap_credit = static_cast<int64_t>(state.heap_sample_bytes);
    }
  }
}

}  // namespace

// --- Public API. -----------------------------------------------------------

bool StartCpuProfiler(int hz, telemetry::MetricRegistry* metrics) {
  if (hz < 1 || hz > 1000) return false;
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (telemetry::ThreadSamplingHz() != 0) return false;
  InstallSigactionLocked(state);
  if (metrics != nullptr && state.samples_gauge == nullptr) {
    state.samples_gauge = metrics->GetGauge("fcp_prof_samples_total");
    state.drops_gauge = metrics->GetGauge("fcp_prof_drops_total");
    state.threads_gauge = metrics->GetGauge("fcp_prof_threads");
    state.symcache_gauge = metrics->GetGauge("fcp_prof_symbol_cache_size");
  }
  state.last_hz = hz;
  telemetry::SetThreadSamplingHz(hz);
  EnabledFlag().store(true, std::memory_order_relaxed);
  return true;
}

void StopCpuProfiler() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  EnabledFlag().store(false, std::memory_order_relaxed);
  telemetry::SetThreadSamplingHz(0);
}

bool IsSampling() { return telemetry::ThreadSamplingHz() != 0; }

int SamplingHz() { return telemetry::ThreadSamplingHz(); }

void CollectNow() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  CollectLocked(state);
}

std::string FoldedProfile() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  CollectLocked(state);
  return RenderFolded(FoldedCountsLocked(state));
}

std::string CaptureFoldedProfile(int seconds, int hz) {
  if (seconds < 1) seconds = 1;
  if (seconds > 60) seconds = 60;
  const bool was_sampling = IsSampling();
  if (!was_sampling && !StartCpuProfiler(hz)) return "";
  std::map<std::string, uint64_t> before;
  {
    ProfState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    CollectLocked(state);
    before = FoldedCountsLocked(state);
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  std::map<std::string, uint64_t> after;
  {
    ProfState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    CollectLocked(state);
    after = FoldedCountsLocked(state);
  }
  if (!was_sampling) StopCpuProfiler();
  std::map<std::string, uint64_t> delta;
  for (const auto& [stack, n] : after) {
    const auto it = before.find(stack);
    const uint64_t prev = it != before.end() ? it->second : 0;
    if (n > prev) delta[stack] = n - prev;
  }
  return RenderFolded(delta);
}

void RecordWaitNs(const char* tag, int64_t ns) {
  ThreadRecord* rec = telemetry::ThisThread();
  if (rec == nullptr || !rec->profiled || tag == nullptr || ns <= 0) return;
  for (WaitSlot& w : rec->waits) {
    const char* cur = w.tag.load(std::memory_order_acquire);
    if (cur == nullptr) {
      if (!w.tag.compare_exchange_strong(cur, tag,
                                         std::memory_order_acq_rel)) {
        if (cur != tag) continue;
      }
    } else if (cur != tag) {
      continue;
    }
    w.ns.fetch_add(ns, std::memory_order_relaxed);
    w.count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // More than kWaitSlots distinct tags on one thread: drop silently.
}

ProfStats Stats() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  CollectLocked(state);
  ProfStats s;
  s.samples = state.collected;
  s.drops = state.drops;
  s.threads = state.live_threads;
  s.symbols_cached = state.symbol_cache.size();
  return s;
}

void ResetProfile() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  {
    // Released before heap_mu: an allocation under heap_mu can reach the
    // registry through the heap hook.
    telemetry::RegistryLock registry_lock;
    for (ThreadRecord* rec : registry_lock.threads()) {
      rec->sample_tail.store(rec->sample_head.load(std::memory_order_acquire),
                             std::memory_order_relaxed);
      for (WaitSlot& w : rec->waits) {
        w.ns.store(0, std::memory_order_relaxed);
        w.count.store(0, std::memory_order_relaxed);
      }
    }
  }
  state.trie = Trie();
  state.collected = 0;
  state.drops = 0;
  std::lock_guard<std::mutex> heap_lock(state.heap_mu);
  state.heap_sites.clear();
}

void EnableHeapProfiler(size_t sample_bytes) {
  ProfState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.heap_mu);
    if (state.heap_enabled) return;
    state.heap_enabled = true;
    state.heap_sample_bytes = sample_bytes > 0 ? sample_bytes : 1;
  }
  alloc_hook::AllocHookSlot().store(&HeapHook, std::memory_order_release);
}

void DisableHeapProfiler() {
  ProfState& state = State();
  alloc_hook::AllocHookSlot().store(nullptr, std::memory_order_release);
  std::lock_guard<std::mutex> lock(state.heap_mu);
  state.heap_enabled = false;
}

bool HeapProfilerEnabled() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.heap_mu);
  return state.heap_enabled;
}

std::string HeapProfile() {
  ProfState& state = State();
  // Copy the sites under heap_mu, symbolize under mu (never hold both in
  // the other order anywhere).
  std::map<std::vector<uintptr_t>, HeapSite> sites;
  {
    const HeapHookMask mask;  // the copy allocates under heap_mu
    std::lock_guard<std::mutex> lock(state.heap_mu);
    sites = state.heap_sites;
  }
  std::map<std::string, uint64_t> folded;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    std::string path;
    for (const auto& [pcs, site] : sites) {
      path.clear();
      for (size_t i = pcs.size(); i-- > 0;) {
        if (!path.empty()) path.push_back(';');
        path.append(SymbolizeLocked(state, pcs[i]));
      }
      if (!path.empty()) folded[path] += site.bytes;
    }
  }
  return RenderFolded(folded);
}

std::string CrashJson() {
  // Best-effort, like the rest of the crash dump: takes the profiler and
  // registry mutexes and allocates.
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  const int hz = telemetry::ThreadSamplingHz();
  std::string out = "{\"sampling\":";
  out += hz != 0 ? "true" : "false";
  out += ",\"hz\":" + std::to_string(hz);
  out += ",\"collected\":" + std::to_string(state.collected);
  out += ",\"drops\":" + std::to_string(state.drops);
  out += ",\"threads\":[";
  bool first_thread = true;
  constexpr uint64_t kTailCap = 16;
  char hex[32];
  telemetry::RegistryLock registry_lock;
  for (const ThreadRecord* rec : registry_lock.threads()) {
    if (!rec->profiled) continue;
    if (!first_thread) out += ',';
    first_thread = false;
    out += "{\"name\":\"";
    out += rec->name;  // thread names are our own identifiers, JSON-clean
    out += "\",\"tid\":" + std::to_string(rec->tid);
    const uint64_t h = rec->sample_head.load(std::memory_order_acquire);
    out += ",\"samples\":" + std::to_string(h);
    out += ",\"tail\":[";
    SampleSlot* slots = rec->samples.load(std::memory_order_acquire);
    if (slots != nullptr) {
      uint64_t from = h > kTailCap ? h - kTailCap : 0;
      bool first_sample = true;
      for (uint64_t i = from; i < h; ++i) {
        SampleSlot& slot = slots[i % kSampleRingSlots];
        if (slot.seq.load(std::memory_order_acquire) != i) continue;
        if (!first_sample) out += ',';
        first_sample = false;
        out += '[';
        const uint32_t depth =
            std::min(slot.depth.load(std::memory_order_relaxed),
                     static_cast<uint32_t>(kMaxFrames));
        for (uint32_t k = 0; k < depth; ++k) {
          if (k > 0) out += ',';
          std::snprintf(
              hex, sizeof(hex), "\"0x%zx\"",
              static_cast<size_t>(
                  slot.pcs[k].load(std::memory_order_relaxed)));
          out += hex;
        }
        out += ']';
      }
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace fcp::prof
