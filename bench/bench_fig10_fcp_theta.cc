// Reproduces Fig. 10(a)/(b): number of distinct FCPs as a function of the
// stream-support threshold theta.
//
//  - 10(a): TR, xi=60s, Ds=100k VPRs, theta in {3, 4, 5}, k=2..4
//  - 10(b): Twitter, Ds=100k tweets, theta in {5, 10, 15, 20}, k=2..4
//
// Flags: --quick, --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/mining_engine.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

void RunDataset(const std::string& figure, Dataset dataset,
                uint64_t paper_unit, const std::vector<uint32_t>& thetas,
                const BenchScale& scale, TablePrinter* table) {
  const uint64_t max_events = scale.Events(100000 * paper_unit);
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, max_events, /*seed=*/42);
  for (uint32_t theta : thetas) {
    MiningParams params = DefaultParams(dataset);
    params.theta = theta;
    params.min_pattern_size = 2;
    params.max_pattern_size = 4;
    MiningEngine engine(MinerKind::kCooMine, params);
    for (const ObjectEvent& event : events) engine.PushEvent(event);
    engine.Flush();
    const auto& counts = engine.collector().distinct_patterns_by_size();
    auto get = [&](uint32_t k) -> uint64_t {
      auto it = counts.find(k);
      return it == counts.end() ? 0 : it->second;
    };
    table->AddRow({figure, std::string(DatasetName(dataset)),
                   std::to_string(theta), std::to_string(get(2)),
                   std::to_string(get(3)), std::to_string(get(4))});
  }
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "quick", "csv"});
  const fcp::bench::BenchScale scale(flags);

  fcp::bench::PrintHeader(
      "Fig. 10(a)/(b): number of distinct FCPs vs theta",
      "raising the stream-support threshold sharply reduces the FCP count.");
  fcp::TablePrinter table(
      {"figure", "dataset", "theta", "k=2", "k=3", "k=4"});
  fcp::bench::RunDataset("10(a)", fcp::bench::Dataset::kTraffic,
                         /*paper_unit=*/1, {3, 4, 5}, scale, &table);
  fcp::bench::RunDataset("10(b)", fcp::bench::Dataset::kTwitter,
                         /*paper_unit=*/5, {5, 10, 15, 20}, scale, &table);
  if (flags.GetBool("csv", false)) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  return 0;
}
