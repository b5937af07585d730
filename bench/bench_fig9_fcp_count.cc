// Reproduces Fig. 9(a)/(b): number of distinct FCPs discovered as a function
// of the data scale Ds, per pattern size k.
//
//  - 9(a): TR, xi=60s, tau=30min, theta=3, k=2..5
//  - 9(b): Twitter, theta=10, k=2..4
//
// One pass per dataset: the collector's distinct-pattern counters are
// snapshotted at Ds checkpoints (counts are cumulative, exactly like the
// paper's "number of FCPs after mining Ds data").
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
                uint64_t paper_unit, uint32_t max_k, const BenchScale& scale,
                TablePrinter* table) {
  MiningParams params = DefaultParams(dataset);
  params.min_pattern_size = 2;
  params.max_pattern_size = max_k;
  const uint64_t max_events = scale.Events(200000 * paper_unit);
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, max_events, /*seed=*/42);

  MiningEngine engine(MinerKind::kCooMine, params);
  const uint64_t kCheckpoints = 5;
  const uint64_t step = events.size() / kCheckpoints;
  uint64_t next = step;
  uint64_t checkpoint = 1;
  for (size_t i = 0; i < events.size(); ++i) {
    engine.PushEvent(events[i]);
    if (i + 1 == next) {
      const auto& counts = engine.collector().distinct_patterns_by_size();
      auto get = [&](uint32_t k) -> uint64_t {
        auto it = counts.find(k);
        return it == counts.end() ? 0 : it->second;
      };
      std::vector<std::string> row = {
          figure, std::string(DatasetName(dataset)),
          std::to_string(checkpoint * 200000 / kCheckpoints)};
      for (uint32_t k = 2; k <= 5; ++k) {
        row.push_back(k <= max_k ? std::to_string(get(k)) : "-");
      }
      table->AddRow(std::move(row));
      next += step;
      ++checkpoint;
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
      "Fig. 9(a)/(b): number of distinct FCPs vs Ds",
      "cumulative distinct patterns per size k; more data -> more FCPs,\n"
      "smaller k -> more FCPs. Ds column is the paper-equivalent point\n"
      "(TR: VPRs, Twitter: tweets).");
  fcp::TablePrinter table(
      {"figure", "dataset", "Ds", "k=2", "k=3", "k=4", "k=5"});
  fcp::bench::RunDataset("9(a)", fcp::bench::Dataset::kTraffic,
                         /*paper_unit=*/1, /*max_k=*/5, scale, &table);
  fcp::bench::RunDataset("9(b)", fcp::bench::Dataset::kTwitter,
                         /*paper_unit=*/5, /*max_k=*/4, scale, &table);
  if (flags.GetBool("csv", false)) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  return 0;
}
