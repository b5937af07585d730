// Reproduces Fig. 6(a)/(b): FCP mining cost (ms) of CooMine, DIMine and
// MatrixMine for processing the data arriving within one second, at arrival
// rates of 1000..5000 events/s.
//
//  - 6(a): TR, Ds=100k VPRs, xi=60s
//  - 6(b): Twitter, Ds=200k tweets
//
// Mining cost excludes index maintenance (that is Fig. 5(c)-(e)); the two
// add up to Fig. 6(c)/(d)'s total cost.
//
// Flags: --quick, --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

void RunDataset(const std::string& figure, Dataset dataset,
                uint64_t warm_events, const BenchScale& scale, bool csv) {
  const uint64_t warm = scale.Events(warm_events);
  const MiningParams params = DefaultParams(dataset);
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, warm + 160000, /*seed=*/42);

  MinerDriver coo(MinerKind::kCooMine, params);
  MinerDriver di(MinerKind::kDiMine, params);
  MinerDriver matrix(MinerKind::kMatrixMine, params);
  const size_t warm_end = std::min<size_t>(warm, events.size());
  coo.PushEvents(events, 0, warm_end);
  di.PushEvents(events, 0, warm_end);
  matrix.PushEvents(events, 0, warm_end);

  TablePrinter table({"figure", "dataset", "rate/s", "coomine_ms",
                      "dimine_ms", "matrixmine_ms"});
  size_t ci = warm_end, di_i = warm_end, mi = warm_end;
  for (uint64_t rate = 1000; rate <= 5000; rate += 1000) {
    const CostSample c = coo.MeasureRate(events, &ci, rate);
    const CostSample d = di.MeasureRate(events, &di_i, rate);
    const CostSample m = matrix.MeasureRate(events, &mi, rate);
    table.AddRow({figure, std::string(DatasetName(dataset)),
                  std::to_string(rate), TablePrinter::Num(c.mining_ms, 2),
                  TablePrinter::Num(d.mining_ms, 2),
                  TablePrinter::Num(m.mining_ms, 2)});
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
      "Fig. 6(a)/(b): mining cost of the three algorithms vs arrival rate",
      "ms of FCP-search work (SLCP/posting intersections/cell lookups +\n"
      "Apriori) per R events, after a Ds warm-up.");
  fcp::bench::RunDataset("6(a)", fcp::bench::Dataset::kTraffic, 100000, scale,
                         csv);
  fcp::bench::RunDataset("6(b)", fcp::bench::Dataset::kTwitter, 200000 * 5,
                         scale, csv);
  return 0;
}
