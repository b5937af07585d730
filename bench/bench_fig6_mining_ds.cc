// Reproduces Fig. 6(e)/(f): CooMine's mining cost vs arrival rate at three
// data scales Ds — the paper's point is that Ds has no visible effect,
// because CooMine only searches a small neighbourhood of each new segment.
//
//  - 6(e): TR, Ds in {100k, 150k, 200k} VPRs (xi=60s, tau=30min)
//  - 6(f): Twitter, Ds in {100k, 150k, 200k} tweets
//
// Flags: --quick, --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

void RunDataset(const std::string& figure, Dataset dataset,
                uint64_t paper_unit, const BenchScale& scale, bool csv) {
  TablePrinter table(
      {"figure", "dataset", "Ds", "rate/s", "coomine_mining_ms"});
  const MiningParams params = DefaultParams(dataset);
  for (uint64_t ds_units : {100000ull, 150000ull, 200000ull}) {
    const uint64_t warm_events = scale.Events(ds_units * paper_unit);
    const std::vector<ObjectEvent> events =
        GenerateEvents(dataset, warm_events + 160000, /*seed=*/42);
    MinerDriver coo(MinerKind::kCooMine, params);
    const size_t warm_end = std::min<size_t>(warm_events, events.size());
    coo.PushEvents(events, 0, warm_end);
    size_t i = warm_end;
    for (uint64_t rate = 1000; rate <= 5000; rate += 1000) {
      const CostSample c = coo.MeasureRate(events, &i, rate);
      table.AddRow({figure, std::string(DatasetName(dataset)),
                    std::to_string(ds_units), std::to_string(rate),
                    TablePrinter::Num(c.mining_ms, 2)});
    }
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
      "Fig. 6(e)/(f): CooMine mining cost vs arrival rate across Ds",
      "Ds (the already-processed volume) should have little effect on the\n"
      "per-second mining cost.");
  // paper_unit: 1 Ds unit = 1 VPR (TR) or ~5 word events (Twitter tweet).
  fcp::bench::RunDataset("6(e)", fcp::bench::Dataset::kTraffic, 1, scale,
                         csv);
  fcp::bench::RunDataset("6(f)", fcp::bench::Dataset::kTwitter, 5, scale,
                         csv);
  return 0;
}
