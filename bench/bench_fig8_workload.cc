// Reproduces Fig. 8(a)/(b): maximum sustainable workload of CooMine.
//
// A producer thread offers events to a 5000-slot buffer queue at a fixed
// arrival rate; a consumer thread drains the queue into the mining pipeline.
// The queue occupancy over time tells the story: rates below the pipeline's
// capacity keep the queue near empty; rates above it pin the queue at its
// capacity (saturation).
//
// Our C++ pipeline is far faster than the paper's Java prototype on 2011
// hardware, so absolute rates differ; to reproduce the *shape*, the bench
// first calibrates the pipeline's drain throughput on the workload, then
// offers ~{0.5x, 0.9x, 1.3x} of it (plus the paper's nominal rates for
// reference in the summary line).
//
// Flags: --duration=<s> (default 10), --rates=a,b,c (events/s, overrides
//        calibration), --quick

#include <atomic>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "core/mining_engine.h"
#include "stream/bounded_queue.h"
#include "stream/paced_replayer.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

constexpr size_t kQueueCapacity = 5000;  // the paper's buffer size

// Measures single-thread pipeline throughput (events/s) on this workload.
double CalibrateThroughput(Dataset dataset,
                           const std::vector<ObjectEvent>& events) {
  MiningEngine engine(MinerKind::kCooMine, DefaultParams(dataset));
  const size_t n = std::min<size_t>(events.size(), 60000);
  Stopwatch clock;
  for (size_t i = 0; i < n; ++i) engine.PushEvent(events[i]);
  return static_cast<double>(n) / clock.ElapsedSeconds();
}

void RunRate(Dataset dataset, const std::vector<ObjectEvent>& events,
             double rate, double duration_s, TablePrinter* table) {
  BoundedQueue<ObjectEvent> queue(kQueueCapacity);
  MiningEngine engine(MinerKind::kCooMine, DefaultParams(dataset));

  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (auto event = queue.Pop()) engine.PushEvent(*event);
  });
  std::thread sampler([&] {
    Stopwatch clock;
    int tick = 0;
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
      ++tick;
      table->AddRow({std::string(DatasetName(dataset)),
                     TablePrinter::Num(rate, 0), std::to_string(tick),
                     std::to_string(queue.size())});
      if (clock.ElapsedSeconds() >= duration_s) break;
    }
  });

  const ReplayStats stats =
      ReplayAtRate(events, rate, &queue, /*deadline_seconds=*/duration_s);
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  queue.Close();
  consumer.join();

  std::printf(
      "rate %.0f/s: offered %llu, accepted %llu, dropped %llu (%.1f%%)\n",
      rate, static_cast<unsigned long long>(stats.offered),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.dropped),
      100.0 * static_cast<double>(stats.dropped) /
          static_cast<double>(std::max<uint64_t>(stats.offered, 1)));
}

void RunDataset(Dataset dataset, double duration_s,
                const std::vector<double>& rates_override) {
  // Enough events for the highest offered rate over the duration.
  const uint64_t needed = static_cast<uint64_t>(duration_s * 2e6) + 100000;
  const std::vector<ObjectEvent> events =
      GenerateEvents(dataset, std::min<uint64_t>(needed, 3000000),
                     /*seed=*/42);

  std::vector<double> rates = rates_override;
  double capacity = 0;
  if (rates.empty()) {
    capacity = CalibrateThroughput(dataset, events);
    rates = {0.5 * capacity, 0.9 * capacity, 1.3 * capacity};
    std::printf("[%s] calibrated pipeline capacity: %.0f events/s "
                "(paper, Java/2011: TR 8000/s, Twitter 4000/s)\n",
                std::string(DatasetName(dataset)).c_str(), capacity);
  }

  TablePrinter table({"dataset", "rate/s", "t(s)", "queue_occupancy"});
  for (double rate : rates) {
    RunRate(dataset, events, rate, duration_s, &table);
  }
  table.Print(std::cout);
  std::printf("\n");
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"duration", "quick", "rates"});
  double duration = flags.GetDouble("duration", 10.0);
  if (flags.GetBool("quick", false)) duration = 4.0;

  std::vector<double> rates;
  {
    std::stringstream ss(flags.GetString("rates", ""));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) rates.push_back(std::stod(item));
    }
  }

  fcp::bench::PrintHeader(
      "Fig. 8(a)/(b): maximum sustainable workload (queue occupancy)",
      "5000-slot buffer between a paced producer and the CooMine pipeline;\n"
      "occupancy pinned at 5000 == unsustainable rate (queue saturation).");
  fcp::bench::RunDataset(fcp::bench::Dataset::kTraffic, duration, rates);
  fcp::bench::RunDataset(fcp::bench::Dataset::kTwitter, duration, rates);
  return 0;
}
