// Google-benchmark microbenchmarks of the individual operations underlying
// the figure harnesses: segmenter push, Seg-tree insert/SLCP/remove,
// DI-Index and Matrix ops, Apriori candidate generation, and end-to-end
// AddSegment for each miner.
//
// Before the google-benchmark suite, a custom-timed kernel section measures
// the SIMD dispatch layer (util/kernels/) at every level the machine
// supports: fused AND+popcount over tidset bitsets, balanced sorted
// intersection (u32 and u64), and the merge-vs-gallop crossover sweep that
// justifies kGallopCrossoverRatio. `--json=<path>` appends those datapoints
// (with speedup-vs-scalar extras) to a BENCH_*.json trajectory;
// `--kernel=auto|scalar|avx2` pins the dispatch level the
// google-benchmark miner benches run at. `--benchmark_filter='^$'` skips the
// google-benchmark suite when only the kernel table is wanted.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "core/miner.h"
#include "index/di_index.h"
#include "index/matrix_index.h"
#include "index/seg_tree.h"
#include "stream/segmenter.h"
#include "util/intersect.h"
#include "util/kernels/kernels.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace fcp::bench {
namespace {

// Shared pre-generated workload (built once; benchmarks index into it).
const std::vector<ObjectEvent>& TrafficEvents() {
  static const std::vector<ObjectEvent>* events =
      new std::vector<ObjectEvent>(
          GenerateEvents(Dataset::kTraffic, 120000, 42));
  return *events;
}

const std::vector<Segment>& TrafficSegments() {
  static const std::vector<Segment>* segments = new std::vector<Segment>(
      SegmentTrace(TrafficEvents(), Seconds(60)));
  return *segments;
}

void BM_SegmenterPush(benchmark::State& state) {
  const auto& events = TrafficEvents();
  SegmentIdGen ids;
  SegmentPool pool;
  Segmenter segmenter(0, Seconds(60), &ids, &pool);
  std::vector<SegmentRef> out;
  size_t i = 0;
  for (auto _ : state) {
    const ObjectEvent& e = events[i];
    segmenter.Push(e.object, e.time, &out);
    if (++i == events.size()) {
      i = 0;
      state.PauseTiming();
      segmenter.Flush(&out);
      out.clear();
      state.ResumeTiming();
    }
    if (out.size() > 4096) out.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmenterPush);

void BM_SegTreeInsert(benchmark::State& state) {
  const auto& segments = TrafficSegments();
  SegTree tree;
  size_t i = 0;
  for (auto _ : state) {
    tree.Insert(segments[i]);
    if (++i == segments.size()) {
      state.PauseTiming();
      tree.RemoveExpired(kMaxTimestamp - 1, 0);  // reset to empty
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegTreeInsert);

void BM_SegTreeSlcp(benchmark::State& state) {
  const auto& segments = TrafficSegments();
  SegTree tree;
  const size_t indexed = segments.size() / 2;
  Timestamp watermark = kMinTimestamp;
  for (size_t i = 0; i < indexed; ++i) {
    tree.Insert(segments[i]);
    watermark = std::max(watermark, segments[i].end_time());
  }
  size_t i = indexed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Slcp(segments[i], watermark, Minutes(30), nullptr));
    if (++i == segments.size()) i = indexed;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegTreeSlcp);

void BM_SegTreeInsertRemove(benchmark::State& state) {
  const auto& segments = TrafficSegments();
  SegTree tree;
  // Steady-state churn: keep a window of 4096 live segments. On trace
  // exhaustion, rebuild the window outside the timed region (wrapping the
  // cursor would re-insert ids that are still live).
  constexpr size_t kWindow = 4096;
  size_t i = 0;
  for (; i < kWindow && i < segments.size(); ++i) tree.Insert(segments[i]);
  for (auto _ : state) {
    if (i == segments.size()) {
      state.PauseTiming();
      tree.RemoveExpired(kMaxTimestamp - 1, 0);
      for (i = 0; i < kWindow; ++i) tree.Insert(segments[i]);
      state.ResumeTiming();
    }
    tree.Insert(segments[i]);
    tree.Remove(segments[i - kWindow].id());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegTreeInsertRemove);

void BM_DiIndexInsert(benchmark::State& state) {
  const auto& segments = TrafficSegments();
  DiIndex index;
  size_t i = 0;
  for (auto _ : state) {
    index.Insert(segments[i]);
    if (++i == segments.size()) {
      state.PauseTiming();
      index.RemoveExpired(kMaxTimestamp - 1, 0);
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiIndexInsert);

void BM_MatrixInsert(benchmark::State& state) {
  const auto& segments = TrafficSegments();
  MatrixIndex index;
  size_t i = 0;
  for (auto _ : state) {
    index.Insert(segments[i]);
    if (++i == segments.size()) {
      state.PauseTiming();
      index.RemoveExpired(kMaxTimestamp - 1, 0);
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatrixInsert);

void BM_MinerAddSegment(benchmark::State& state) {
  const MinerKind kind = static_cast<MinerKind>(state.range(0));
  const auto& segments = TrafficSegments();
  const MiningParams params = DefaultParams(Dataset::kTraffic);
  auto miner = MakeMiner(kind, params);
  const size_t warm = segments.size() / 2;
  std::vector<Fcp> sink;
  for (size_t i = 0; i < warm; ++i) {
    sink.clear();
    miner->AddSegment(segments[i], &sink);
  }
  size_t i = warm;
  for (auto _ : state) {
    sink.clear();
    miner->AddSegment(segments[i], &sink);
    if (++i == segments.size()) i = warm;  // re-adding: ids collide; guard
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(MinerKindToString(kind)));
}

// --- Kernel dispatch section (custom-timed; see file comment). ------------

// Times every closure once per round (several rounds, round-robin) and
// returns per-closure minimum ns/op. Interleaving is what makes the
// speedup ratios trustworthy on a shared host: the cases being compared see
// the same frequency/sibling-load conditions within every round, and the
// minimum discards the rounds a neighbor polluted. Iteration counts are
// calibrated per closure to a ~2ms timed region.
std::vector<double> MeasureNsPerOpInterleaved(
    const std::vector<std::function<void()>>& fns) {
  std::vector<uint64_t> iters(fns.size(), 8);
  std::vector<int64_t> best(fns.size(), std::numeric_limits<int64_t>::max());
  for (size_t f = 0; f < fns.size(); ++f) {
    fns[f]();  // warm: touch the data outside the timed region
    for (;;) {
      Stopwatch timer;
      for (uint64_t i = 0; i < iters[f]; ++i) fns[f]();
      const int64_t ns = timer.ElapsedNanos();
      if (ns >= 2'000'000 || iters[f] >= (1ull << 28)) break;
      iters[f] *= 2;
    }
  }
  for (int round = 0; round < 7; ++round) {
    for (size_t f = 0; f < fns.size(); ++f) {
      Stopwatch timer;
      for (uint64_t i = 0; i < iters[f]; ++i) fns[f]();
      best[f] = std::min(best[f], timer.ElapsedNanos());
    }
  }
  std::vector<double> ns_per_op(fns.size());
  for (size_t f = 0; f < fns.size(); ++f) {
    ns_per_op[f] =
        static_cast<double>(best[f]) / static_cast<double>(iters[f]);
  }
  return ns_per_op;
}

std::vector<uint64_t> RandomBits(size_t words, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> bits(words);
  for (uint64_t& w : bits) w = rng.Next();
  return bits;
}

// `size` distinct sorted values from [0, universe): sampling two lists from
// the same universe fixes their expected overlap at size_a*size_b/universe.
std::vector<uint64_t> SortedSample(size_t size, uint64_t universe, Rng* rng) {
  std::vector<uint64_t> v;
  v.reserve(size * 2);
  while (v.size() < size) {
    for (size_t i = v.size(); i < size * 2; ++i) v.push_back(rng->Below(universe));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  v.resize(size);
  return v;
}

// The skewed-side strategy of IntersectSorted, isolated so the crossover
// sweep can race it against the balanced merge kernel at every ratio.
size_t GallopIntersect(const uint64_t* a, size_t a_size, const uint64_t* b,
                       size_t b_size, uint64_t* out) {
  size_t n = 0, j = 0;
  for (size_t i = 0; i < a_size; ++i) {
    j = internal::GallopLowerBound(b, j, b_size, a[i]);
    if (j == b_size) break;
    if (b[j] == a[i]) {
      out[n++] = a[i];
      ++j;
    }
  }
  return n;
}

std::vector<kernels::KernelLevel> SupportedLevels() {
  std::vector<kernels::KernelLevel> levels;
  for (kernels::KernelLevel level :
       {kernels::KernelLevel::kScalar, kernels::KernelLevel::kAvx2}) {
    if (kernels::LevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

void RunKernelSection(const Flags& flags) {
  const std::string label = flags.GetString("label", "run");
  const std::vector<kernels::KernelLevel> levels = SupportedLevels();
  std::vector<JsonRecord> records;

  // Fused AND+popcount over 4096-bit tidsets (64 words, CooMine's candidate
  // width regime). Unreachable threshold disables the early exit so every
  // level counts the full bitset — the apples-to-apples comparison. All
  // levels measured interleaved (see MeasureNsPerOpInterleaved).
  constexpr size_t kWords = 64;
  const std::vector<uint64_t> bits_a = RandomBits(kWords, 101);
  const std::vector<uint64_t> bits_b = RandomBits(kWords, 202);
  std::vector<uint64_t> bits_out(kWords);
  std::printf("kernel dispatch (words=%zu bitsets, 4096-element lists)\n",
              kWords);
  std::printf("%-32s %12s %14s\n", "case", "ns/op", "vs scalar");
  {
    std::vector<std::function<void()>> fns;
    for (kernels::KernelLevel level : levels) {
      const kernels::KernelOps& ops = kernels::OpsFor(level);
      fns.push_back([&ops, &bits_a, &bits_b, &bits_out] {
        benchmark::DoNotOptimize(ops.and_popcount_atleast(
            bits_a.data(), bits_b.data(), bits_out.data(), kWords,
            kWords * 64 + 1));
      });
    }
    const std::vector<double> ns = MeasureNsPerOpInterleaved(fns);
    for (size_t l = 0; l < levels.size(); ++l) {
      const double speedup = ns[0] / ns[l];
      JsonRecord record;
      record.name =
          "and_popcount/" + std::string(kernels::KernelLevelName(levels[l]));
      record.ns_per_op = ns[l];
      record.AddExtra("words", static_cast<double>(kWords));
      record.AddExtra("speedup_vs_scalar", speedup);
      records.push_back(record);
      std::printf("%-32s %12.2f %13.2fx\n", record.name.c_str(), ns[l],
                  speedup);
    }
  }

  // Balanced sorted intersection, 4096 vs 4096 from a 16384 universe
  // (~1024 common elements) — the shape the merge kernel owns. u32 is the
  // vectorized family the tentpole targets; u64 (SegmentId posting lists)
  // has half the lanes and correspondingly less headroom.
  constexpr size_t kListSize = 4096;
  Rng list_rng(303);
  const std::vector<uint64_t> list_a =
      SortedSample(kListSize, 4 * kListSize, &list_rng);
  const std::vector<uint64_t> list_b =
      SortedSample(kListSize, 4 * kListSize, &list_rng);
  const std::vector<uint32_t> list_a32(list_a.begin(), list_a.end());
  const std::vector<uint32_t> list_b32(list_b.begin(), list_b.end());
  std::vector<uint64_t> list_out(kListSize);
  std::vector<uint32_t> list_out32(kListSize);
  {
    std::vector<std::function<void()>> fns;
    for (kernels::KernelLevel level : levels) {
      const kernels::KernelOps& ops = kernels::OpsFor(level);
      fns.push_back([&ops, &list_a, &list_b, &list_out] {
        benchmark::DoNotOptimize(ops.intersect_u64(list_a.data(), kListSize,
                                                   list_b.data(), kListSize,
                                                   list_out.data()));
      });
      fns.push_back([&ops, &list_a32, &list_b32, &list_out32] {
        benchmark::DoNotOptimize(ops.intersect_u32(list_a32.data(), kListSize,
                                                   list_b32.data(), kListSize,
                                                   list_out32.data()));
      });
    }
    const std::vector<double> ns = MeasureNsPerOpInterleaved(fns);
    for (size_t l = 0; l < levels.size(); ++l) {
      const std::string name(kernels::KernelLevelName(levels[l]));
      for (const auto& [suffix, idx, scalar_idx] :
           {std::tuple{"u64", 2 * l, size_t{0}},
            std::tuple{"u32", 2 * l + 1, size_t{1}}}) {
        const double speedup = ns[scalar_idx] / ns[idx];
        JsonRecord record;
        record.name = "intersect_balanced_" + std::string(suffix) + "/" + name;
        record.ns_per_op = ns[idx];
        record.AddExtra("list_size", static_cast<double>(kListSize));
        record.AddExtra("speedup_vs_scalar", speedup);
        records.push_back(record);
        std::printf("%-32s %12.1f %13.2fx\n", record.name.c_str(), ns[idx],
                    speedup);
      }
    }
  }

  // Merge-vs-gallop crossover sweep: long side fixed at 4096 u64, short side
  // long/ratio, both from the same universe; the three strategies at each
  // ratio are measured interleaved. This is the measurement behind
  // kGallopCrossoverRatio in util/intersect.h — re-run it before retuning.
  const kernels::KernelLevel best = levels.back();
  std::printf("\nintersect crossover (u64, long side %zu)\n", kListSize);
  std::printf("%6s %14s %14s %14s %10s\n", "ratio", "merge(best)",
              "merge(scalar)", "gallop", "winner");
  for (size_t ratio : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const size_t short_size = kListSize / ratio;
    Rng sweep_rng(404 + ratio);
    const std::vector<uint64_t> short_list =
        SortedSample(short_size, 4 * kListSize, &sweep_rng);
    const std::vector<uint64_t> long_list =
        SortedSample(kListSize, 4 * kListSize, &sweep_rng);
    std::vector<uint64_t> out(short_size);
    const std::vector<double> ns = MeasureNsPerOpInterleaved({
        [&, best] {
          benchmark::DoNotOptimize(kernels::OpsFor(best).intersect_u64(
              short_list.data(), short_size, long_list.data(), kListSize,
              out.data()));
        },
        [&] {
          benchmark::DoNotOptimize(
              kernels::OpsFor(kernels::KernelLevel::kScalar)
                  .intersect_u64(short_list.data(), short_size,
                                 long_list.data(), kListSize, out.data()));
        },
        [&] {
          benchmark::DoNotOptimize(
              GallopIntersect(short_list.data(), short_size, long_list.data(),
                              kListSize, out.data()));
        },
    });
    const double merge_best_ns = ns[0];
    const double merge_scalar_ns = ns[1];
    const double gallop_ns = ns[2];
    JsonRecord record;
    record.name = "intersect_ratio/" + std::to_string(ratio);
    record.ns_per_op = merge_best_ns;
    record.AddExtra("ratio", static_cast<double>(ratio));
    record.AddExtra("merge_scalar_ns", merge_scalar_ns);
    record.AddExtra("gallop_ns", gallop_ns);
    record.AddExtra("gallop_over_merge", gallop_ns / merge_best_ns);
    records.push_back(record);
    std::printf("%6zu %14.1f %14.1f %14.1f %10s\n", ratio, merge_best_ns,
                merge_scalar_ns, gallop_ns,
                gallop_ns < merge_best_ns ? "gallop" : "merge");
  }
  std::printf("\n");

  MaybeAppendBenchJson(flags, "bench_micro_ops/kernels", label, records);
}

}  // namespace

// External-linkage shim so main (outside the anonymous namespace) can run
// the kernel section after flag parsing.
void RunKernelDispatchSection(const Flags& flags) { RunKernelSection(flags); }

}  // namespace fcp::bench

// Re-adding a segment id that is still live would trip the registry CHECK;
// the half-trace window (tau=30min of event time) is long since expired by
// the time the cursor wraps, so wrap-around re-insertion is safe only if the
// earlier copy was expired and removed. To keep the benchmark simple and
// safe, give it enough segments that it never wraps in practice and force a
// generous iteration cap.
BENCHMARK(fcp::bench::BM_MinerAddSegment)
    ->Arg(static_cast<int>(fcp::MinerKind::kCooMine))
    ->Arg(static_cast<int>(fcp::MinerKind::kDiMine))
    ->Arg(static_cast<int>(fcp::MinerKind::kMatrixMine))
    ->Iterations(20000);

// Custom main: google-benchmark takes its --benchmark_* flags out of argv
// first, the harness flags (--kernel/--json/--label) are what must remain;
// then pin the dispatch level, run the kernel section, then the registered
// google-benchmark suite.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"kernel", "json", "label"});
  fcp::bench::ApplyKernelFlag(flags);
  fcp::bench::RunKernelDispatchSection(flags);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
