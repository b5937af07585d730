// Reproduces Fig. 5(c)/(d)/(e): maintenance cost (ms) of the three index
// structures for processing the data arriving within one second, at arrival
// rates of 1000..5000 events/s.
//
//  - 5(c): TR, xi=60s, tau=30min, Ds=200k VPRs
//  - 5(d): TR, Ds=100k, xi in {40s, 60s}
//  - 5(e): Twitter, Ds=200k tweets
//
// Maintenance = segment insertion + expiry (Seg-tree: Tlist sweep; DI-Index
// and Matrix: full posting/cell scans at the maintenance cadence).
//
// Flags: --quick, --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "index/di_index.h"
#include "index/matrix_index.h"
#include "index/seg_tree.h"
#include "stream/stream_mux.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

// Feeds events; times each index's insert + expiry work separately.
class TimedTrio {
 public:
  explicit TimedTrio(const MiningParams& params)
      : params_(params), mux_(params.xi) {}

  void PushEvent(const ObjectEvent& event) {
    scratch_.clear();
    mux_.Push(event, &scratch_);
    for (const SegmentRef& ref : scratch_) {
      const Segment& segment = *ref;
      watermark_ = std::max(watermark_, segment.end_time());
      {
        Stopwatch timer;
        tree_.Insert(segment);
        tree_ns_ += timer.ElapsedNanos();
      }
      {
        Stopwatch timer;
        di_.Insert(segment);
        di_ns_ += timer.ElapsedNanos();
      }
      {
        Stopwatch timer;
        matrix_.Insert(segment);
        matrix_ns_ += timer.ElapsedNanos();
      }
      if (last_sweep_ == kMinTimestamp) last_sweep_ = watermark_;
      if (watermark_ - last_sweep_ >= params_.maintenance_interval) {
        {
          Stopwatch timer;
          tree_.RemoveExpired(watermark_, params_.tau);
          tree_ns_ += timer.ElapsedNanos();
        }
        {
          Stopwatch timer;
          di_.RemoveExpired(watermark_, params_.tau);
          di_ns_ += timer.ElapsedNanos();
        }
        {
          Stopwatch timer;
          matrix_.RemoveExpired(watermark_, params_.tau);
          matrix_ns_ += timer.ElapsedNanos();
        }
        last_sweep_ = watermark_;
      }
    }
  }

  struct Snapshot {
    int64_t tree_ns, di_ns, matrix_ns;
  };
  Snapshot snapshot() const { return {tree_ns_, di_ns_, matrix_ns_}; }

 private:
  MiningParams params_;
  StreamMux mux_;
  SegTree tree_;
  DiIndex di_;
  MatrixIndex matrix_;
  std::vector<SegmentRef> scratch_;
  Timestamp watermark_ = kMinTimestamp;
  Timestamp last_sweep_ = kMinTimestamp;
  int64_t tree_ns_ = 0;
  int64_t di_ns_ = 0;
  int64_t matrix_ns_ = 0;
};

void RunCase(const std::string& figure, Dataset dataset, uint64_t warm_events,
             DurationMs xi, const BenchScale& scale, bool csv) {
  const uint64_t warm = scale.Events(warm_events);
  MiningParams params = DefaultParams(dataset);
  params.xi = xi;
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, warm + 160000, /*seed=*/42);

  TimedTrio trio(params);
  size_t i = 0;
  for (; i < warm && i < events.size(); ++i) trio.PushEvent(events[i]);

  TablePrinter table({"figure", "dataset", "xi(s)", "rate/s", "seg_tree_ms",
                      "di_index_ms", "matrix_ms"});
  for (uint64_t rate = 1000; rate <= 5000; rate += 1000) {
    // Amortize periodic sweeps: process a window of >= 3*rate events and
    // scale the cost to "rate events" (one second of data).
    const uint64_t window = std::max<uint64_t>(5 * rate, 25000);
    const auto before = trio.snapshot();
    const uint64_t begin = i;
    const uint64_t upto = std::min<uint64_t>(i + window, events.size());
    for (; i < upto; ++i) trio.PushEvent(events[i]);
    const auto after = trio.snapshot();
    const double scale_to_rate =
        upto > begin
            ? static_cast<double>(rate) / static_cast<double>(upto - begin)
            : 0.0;
    auto ms = [&](int64_t delta_ns) {
      return TablePrinter::Num(
          static_cast<double>(delta_ns) / 1e6 * scale_to_rate, 2);
    };
    table.AddRow({figure, std::string(DatasetName(dataset)),
                  std::to_string(xi / 1000), std::to_string(rate),
                  ms(after.tree_ns - before.tree_ns),
                  ms(after.di_ns - before.di_ns),
                  ms(after.matrix_ns - before.matrix_ns)});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "quick", "csv"});
  const fcp::bench::BenchScale scale(flags);
  const bool csv = flags.GetBool("csv", false);
  using fcp::bench::Dataset;

  fcp::bench::PrintHeader(
      "Fig. 5(c)/(d)/(e): index maintenance cost vs arrival rate",
      "ms of insert+expiry work per R events, measured after a Ds warm-up.");
  fcp::bench::RunCase("5(c)", Dataset::kTraffic, 200000, fcp::Seconds(60),
                      scale, csv);
  fcp::bench::RunCase("5(d)", Dataset::kTraffic, 100000, fcp::Seconds(40),
                      scale, csv);
  fcp::bench::RunCase("5(d)", Dataset::kTraffic, 100000, fcp::Seconds(60),
                      scale, csv);
  fcp::bench::RunCase("5(e)", Dataset::kTwitter, 200000 * 5, fcp::Seconds(60),
                      scale, csv);
  return 0;
}
