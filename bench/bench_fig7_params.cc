// Reproduces Fig. 7(a)/(b): sensitivity of CooMine's mining cost to the
// window parameters, on the TR workload (Ds=100k VPRs).
//
//  - 7(a): xi in {20s, 40s, 60s} (tau=30min) — larger xi -> longer segments
//          -> more LCPs -> higher mining cost.
//  - 7(b): tau in {30min, 60min, 90min} (xi=60s) — tau should matter little.
//
// Flags: --quick, --scale=<f>, --csv

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

void RunCase(const std::string& figure, DurationMs xi, DurationMs tau,
             const std::vector<ObjectEvent>& events, uint64_t warm,
             TablePrinter* table) {
  MiningParams params = DefaultParams(Dataset::kTraffic);
  params.xi = xi;
  params.tau = tau;
  MinerDriver coo(MinerKind::kCooMine, params);
  const size_t warm_end = std::min<size_t>(warm, events.size());
  coo.PushEvents(events, 0, warm_end);
  size_t i = warm_end;
  for (uint64_t rate = 1000; rate <= 5000; rate += 1000) {
    const CostSample c = coo.MeasureRate(events, &i, rate);
    table->AddRow({figure, std::to_string(xi / 1000),
                   std::to_string(tau / Minutes(1)), std::to_string(rate),
                   TablePrinter::Num(c.mining_ms, 2)});
  }
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"scale", "quick", "csv"});
  const fcp::bench::BenchScale scale(flags);

  fcp::bench::PrintHeader(
      "Fig. 7(a)/(b): CooMine mining cost vs xi and tau (TR, Ds=100k)",
      "7(a): larger xi -> longer segments -> more LCP work.\n"
      "7(b): tau has little impact (search scope is bounded by SLCP).");

  const uint64_t warm = scale.Events(100000);
  const std::vector<fcp::ObjectEvent> events = fcp::bench::GenerateEvents(
      fcp::bench::Dataset::kTraffic, warm + 160000, /*seed=*/42);

  fcp::TablePrinter table(
      {"figure", "xi(s)", "tau(min)", "rate/s", "coomine_mining_ms"});
  for (fcp::DurationMs xi :
       {fcp::Seconds(20), fcp::Seconds(40), fcp::Seconds(60)}) {
    fcp::bench::RunCase("7(a)", xi, fcp::Minutes(30), events, warm, &table);
  }
  for (fcp::DurationMs tau :
       {fcp::Minutes(30), fcp::Minutes(60), fcp::Minutes(90)}) {
    fcp::bench::RunCase("7(b)", fcp::Seconds(60), tau, events, warm, &table);
  }
  if (flags.GetBool("csv", false)) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  return 0;
}
