// Reproduces Fig. 5(f): Seg-tree compression ratio (d1-d2)/d1 as a function
// of the data scale Ds, for the TR-like and Twitter-like workloads.
//
// d1 = objects stored across live segments; d2 = Seg-tree nodes. High overlap
// between a camera's consecutive segments compresses well; tweets (disjoint
// segments) do not.
//
// Flags: --quick, --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "index/seg_tree.h"
#include "stream/stream_mux.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

void RunDataset(Dataset dataset, const BenchScale& scale,
                TablePrinter* table) {
  const MiningParams params = DefaultParams(dataset);
  const uint64_t max_events =
      scale.Events(dataset == Dataset::kTraffic ? 250000 : 250000 * 5);
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, max_events, /*seed=*/42);

  SegTree tree;
  StreamMux mux(params.xi);
  std::vector<SegmentRef> scratch;
  Timestamp watermark = kMinTimestamp;
  Timestamp last_sweep = kMinTimestamp;

  const uint64_t step = events.size() / 5;
  uint64_t next_checkpoint = step;
  const uint64_t paper_step = 50000;  // Ds axis: VPRs (TR) / tweets (Twitter)
  uint64_t checkpoint_index = 1;
  for (size_t i = 0; i < events.size(); ++i) {
    scratch.clear();
    mux.Push(events[i], &scratch);
    for (const SegmentRef& ref : scratch) {
      const Segment& segment = *ref;
      tree.Insert(segment);
      watermark = std::max(watermark, segment.end_time());
      if (last_sweep == kMinTimestamp) last_sweep = watermark;
      if (watermark - last_sweep >= params.maintenance_interval) {
        tree.RemoveExpired(watermark, params.tau);
        last_sweep = watermark;
      }
    }
    if (i + 1 == next_checkpoint) {
      table->AddRow({std::string(DatasetName(dataset)),
                     std::to_string(checkpoint_index * paper_step),
                     TablePrinter::Num(tree.CompressionRatio(), 3),
                     std::to_string(tree.num_nodes()),
                     std::to_string(tree.total_objects())});
      next_checkpoint += step;
      ++checkpoint_index;
    }
  }
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "quick", "csv"});
  const fcp::bench::BenchScale scale(flags);

  fcp::bench::PrintHeader(
      "Fig. 5(f): Seg-tree compression ratio vs Ds",
      "(stored objects - tree nodes) / stored objects over live segments;\n"
      "Ds column reports the paper-equivalent scale point.");
  fcp::TablePrinter table(
      {"dataset", "Ds(paper)", "compression", "nodes", "objects"});
  fcp::bench::RunDataset(fcp::bench::Dataset::kTraffic, scale, &table);
  fcp::bench::RunDataset(fcp::bench::Dataset::kTwitter, scale, &table);
  if (flags.GetBool("csv", false)) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  return 0;
}
