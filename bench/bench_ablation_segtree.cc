// Ablation study of the Seg-tree design choices called out in DESIGN.md:
//
//  1. DistanceBound pruning on/off — nodes (slots) stepped, runs entered
//     and SLCP wall time.
//  2. Lazy deletion vs eager per-segment sweeps — maintenance wall time.
//
// Flags: --quick, --scale=<f>

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/coomine.h"
#include "index/seg_tree.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

// --- Ablation 1: DistanceBound pruning -------------------------------------
void AblateDistanceBound(const std::vector<Segment>& segments,
                         const MiningParams& params, TablePrinter* table) {
  for (bool use_bound : {true, false}) {
    SegTreeOptions options;
    options.use_distance_bound = use_bound;
    SegTree tree(options);
    // Index everything but the last 2000 segments; probe with those.
    const size_t probe_count = std::min<size_t>(2000, segments.size() / 4);
    const size_t indexed = segments.size() - probe_count;
    Timestamp watermark = kMinTimestamp;
    for (size_t i = 0; i < indexed; ++i) {
      tree.Insert(segments[i]);
      watermark = std::max(watermark, segments[i].end_time());
    }
    Stopwatch clock;
    size_t rows_total = 0;
    for (size_t i = indexed; i < segments.size(); ++i) {
      watermark = std::max(watermark, segments[i].end_time());
      rows_total +=
          tree.Slcp(segments[i], watermark, params.tau, nullptr).size();
    }
    table->AddRow({"distance_bound", use_bound ? "on" : "off",
                   TablePrinter::Num(clock.ElapsedMillis(), 1) + " ms",
                   std::to_string(tree.stats().distance_bound_visits) +
                       " nodes visited (" +
                       std::to_string(tree.stats().runs_visited) + " runs)",
                   std::to_string(rows_total) + " LCP rows"});
  }
}

// --- Ablation 2: lazy vs eager expiry ---------------------------------------
void AblateLazyDeletion(const std::vector<ObjectEvent>& events,
                        const MiningParams& base_params,
                        TablePrinter* table) {
  for (bool lazy : {true, false}) {
    MiningParams p = base_params;
    p.tau = Minutes(5);  // ensure expiry happens within the trace
    if (!lazy) p.maintenance_interval = 1;  // sweep on (almost) every segment
    CooMineOptions options;
    CooMine miner(p, options);
    std::vector<Fcp> sink;
    StreamMux mux(p.xi);
    std::vector<SegmentRef> scratch;
    Stopwatch clock;
    for (const ObjectEvent& event : events) {
      scratch.clear();
      mux.Push(event, &scratch);
      for (const SegmentRef& segment : scratch) {
        sink.clear();
        miner.AddSegment(*segment, &sink);
      }
    }
    table->AddRow(
        {"expiry", lazy ? "lazy (LD)" : "eager sweeps",
         TablePrinter::Num(clock.ElapsedMillis(), 1) + " ms total",
         TablePrinter::Num(
             static_cast<double>(miner.stats().maintenance_ns) / 1e6, 1) +
             " ms maintenance",
         std::to_string(miner.stats().maintenance_runs) + " sweeps"});
  }
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "quick"});
  const fcp::bench::BenchScale scale(flags);

  fcp::bench::PrintHeader(
      "Ablation: Seg-tree design choices (TR workload)",
      "DistanceBound pruning, lazy deletion.");

  const fcp::MiningParams params =
      fcp::bench::DefaultParams(fcp::bench::Dataset::kTraffic);
  const uint64_t n = scale.Events(100000);
  const std::vector<fcp::ObjectEvent> events =
      fcp::bench::GenerateEvents(fcp::bench::Dataset::kTraffic, n, 42);
  const std::vector<fcp::Segment> segments =
      fcp::bench::SegmentTrace(events, params.xi);

  fcp::TablePrinter table({"ablation", "variant", "metric1", "metric2",
                           "metric3"});
  fcp::bench::AblateDistanceBound(segments, params, &table);
  fcp::bench::AblateLazyDeletion(events, params, &table);
  table.Print(std::cout);
  return 0;
}
