// Google-benchmark microbenchmarks of the individual operations underlying
// the figure harnesses: segmenter push, Seg-tree insert/SLCP/remove,
// DI-Index and Matrix ops, Apriori candidate generation, and end-to-end
// AddSegment for each miner.
//
// Before the google-benchmark suite, a custom-timed section runs the
// merge-vs-gallop crossover sweep behind kGallopCrossoverRatio
// (util/intersect.h): the linear merge against galloping at each size
// ratio. `--json=<path>` appends those datapoints to a JSON trajectory
// file. `--benchmark_filter='^$'` skips the google-benchmark suite
// when only the sweep is wanted.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/miner.h"
#include "index/di_index.h"
#include "index/matrix_index.h"
#include "index/seg_tree.h"
#include "stream/segmenter.h"
#include "util/intersect.h"
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
  // SLCP counts every segment in the tree: sweep to the valid ones first.
  tree.RemoveExpired(watermark, Minutes(30));
  size_t i = indexed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Slcp(segments[i]));
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

// --- Crossover section (custom-timed; see file comment). -----------------

// Times every closure once per round (several rounds, round-robin) and
// returns per-closure minimum ns/op. Interleaving is what makes the
// ratios trustworthy on a shared host: the cases being compared see
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
// sweep can race it against internal::MergeIntersect at every ratio.
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

// Merge-vs-gallop crossover sweep: long side fixed at 4096 u64, short side
// long/ratio, both from the same universe; the two strategies at each ratio
// are measured interleaved. This is the measurement behind
// kGallopCrossoverRatio in util/intersect.h — re-run it before retuning.
void RunCrossoverSection(const Flags& flags) {
  const std::string label = flags.GetString("label", "run");
  constexpr size_t kListSize = 4096;
  std::vector<JsonRecord> records;
  std::printf("intersect crossover (u64, long side %zu)\n", kListSize);
  std::printf("%6s %14s %14s %10s\n", "ratio", "merge", "gallop", "winner");
  for (size_t ratio : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const size_t short_size = kListSize / ratio;
    Rng sweep_rng(404 + ratio);
    const std::vector<uint64_t> short_list =
        SortedSample(short_size, 4 * kListSize, &sweep_rng);
    const std::vector<uint64_t> long_list =
        SortedSample(kListSize, 4 * kListSize, &sweep_rng);
    std::vector<uint64_t> out(short_size);
    const std::vector<double> ns = MeasureNsPerOpInterleaved({
        [&] {
          benchmark::DoNotOptimize(internal::MergeIntersect(
              short_list.data(), short_size, long_list.data(), kListSize,
              out.data()));
        },
        [&] {
          benchmark::DoNotOptimize(
              GallopIntersect(short_list.data(), short_size, long_list.data(),
                              kListSize, out.data()));
        },
    });
    const double merge_ns = ns[0];
    const double gallop_ns = ns[1];
    JsonRecord record;
    record.name = "intersect_ratio/" + std::to_string(ratio);
    record.ns_per_op = merge_ns;
    record.AddExtra("ratio", static_cast<double>(ratio));
    record.AddExtra("gallop_ns", gallop_ns);
    record.AddExtra("gallop_over_merge", gallop_ns / merge_ns);
    records.push_back(record);
    std::printf("%6zu %14.1f %14.1f %10s\n", ratio, merge_ns, gallop_ns,
                gallop_ns < merge_ns ? "gallop" : "merge");
  }
  std::printf("\n");

  MaybeAppendBenchJson(flags, "bench_micro_ops/crossover", label, records);
}

}  // namespace

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
// first, the harness flags (--json/--label) are what must remain; then run
// the crossover section, then the registered google-benchmark suite.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"json", "label"});
  fcp::bench::RunCrossoverSection(flags);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
