// Reproduces Fig. 5(a)/(b): memory consumption of the three index structures
// for processing the data arriving within one second, at arrival rates of
// 1000..5000 events/s, after a warm-up of Ds events (TR: Ds=200k VPRs with
// xi=60s; Twitter: Ds=200k tweets).
//
// Interpretation (EXPERIMENTS.md): the y value is the additional index
// memory consumed by ingesting R further events on top of the warmed state.
//
// Flags: --quick (1/4 scale), --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "index/di_index.h"
#include "index/matrix_index.h"
#include "index/seg_tree.h"
#include "stream/stream_mux.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

// All three indexes fed from one segmenter, with each index's own expiry
// policy applied at the paper's cadence.
class IndexTrio {
 public:
  explicit IndexTrio(const MiningParams& params)
      : params_(params), mux_(params.xi) {}

  void PushEvent(const ObjectEvent& event, bool auto_sweep) {
    scratch_.clear();
    mux_.Push(event, &scratch_);
    for (const SegmentRef& ref : scratch_) {
      const Segment& segment = *ref;
      tree_.Insert(segment);
      di_.Insert(segment);
      matrix_.Insert(segment);
      watermark_ = std::max(watermark_, segment.end_time());
      if (last_sweep_ == kMinTimestamp) last_sweep_ = watermark_;
      if (auto_sweep &&
          watermark_ - last_sweep_ >= params_.maintenance_interval) {
        SweepNow();
      }
    }
  }

  /// Expires everything outside the tau window right now, so a following
  /// measurement batch is pure insertion.
  void SweepNow() {
    tree_.RemoveExpired(watermark_, params_.tau);
    di_.RemoveExpired(watermark_, params_.tau);
    matrix_.RemoveExpired(watermark_, params_.tau);
    last_sweep_ = watermark_;
  }

  size_t tree_bytes() const { return tree_.MemoryUsage(); }
  size_t di_bytes() const { return di_.MemoryUsage(); }
  size_t matrix_bytes() const { return matrix_.MemoryUsage(); }

 private:
  MiningParams params_;
  StreamMux mux_;
  SegTree tree_;
  DiIndex di_;
  MatrixIndex matrix_;
  std::vector<SegmentRef> scratch_;
  Timestamp watermark_ = kMinTimestamp;
  Timestamp last_sweep_ = kMinTimestamp;
};

void RunDataset(Dataset dataset, uint64_t warm_events, const BenchScale& scale,
                bool csv) {
  const uint64_t warm = scale.Events(warm_events);
  const MiningParams params = DefaultParams(dataset);
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, warm + 16000, /*seed=*/42);

  IndexTrio trio(params);
  size_t i = 0;
  for (; i < warm && i < events.size(); ++i) {
    trio.PushEvent(events[i], /*auto_sweep=*/true);
  }

  TablePrinter table({"dataset", "rate/s", "seg_tree_MB", "di_index_MB",
                      "matrix_MB"});
  for (uint64_t rate = 1000; rate <= 5000; rate += 1000) {
    // Each rate point is a pure-insertion batch of R events on top of a
    // freshly swept steady state (expiry cost is Fig. 5(c)-(e)'s subject).
    trio.SweepNow();
    const double tree0 = static_cast<double>(trio.tree_bytes());
    const double di0 = static_cast<double>(trio.di_bytes());
    const double matrix0 = static_cast<double>(trio.matrix_bytes());
    const uint64_t upto = std::min<uint64_t>(i + rate, events.size());
    for (; i < upto; ++i) trio.PushEvent(events[i], /*auto_sweep=*/false);
    auto mb = [](double delta) {
      return TablePrinter::Num(delta / (1024.0 * 1024.0), 3);
    };
    table.AddRow({std::string(DatasetName(dataset)), std::to_string(rate),
                  mb(static_cast<double>(trio.tree_bytes()) - tree0),
                  mb(static_cast<double>(trio.di_bytes()) - di0),
                  mb(static_cast<double>(trio.matrix_bytes()) - matrix0)});
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

  fcp::bench::PrintHeader(
      "Fig. 5(a)/(b): index memory vs arrival rate",
      "delta index memory (MB) after ingesting R events past the Ds warm-up;\n"
      "TR: Ds=200k VPRs, xi=60s; Twitter: Ds=200k tweets (~5 words each).");
  fcp::bench::RunDataset(fcp::bench::Dataset::kTraffic, 200000, scale, csv);
  fcp::bench::RunDataset(fcp::bench::Dataset::kTwitter, 200000 * 5, scale,
                         csv);
  return 0;
}
