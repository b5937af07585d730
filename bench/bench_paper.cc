// Regenerates the evaluation of the paper (Section 6: Figs. 5-10, Tables
// 3-4) and the Seg-tree ablation, one entry of kFigures per figure. Each
// entry prints its header, then one aligned (or --csv) table row per plotted
// point. The workload interpretation follows EXPERIMENTS.md: "processing the
// data within one second at arrival rate R" = processing R consecutive events
// of the trace, after a warm-up of Ds events.
//
// Flags: --figure=<id>[,<id>...] (default: every figure, in paper order;
//        ids 5ab 5cde 5f 6abcd 6ef 7 8 9 10 t34 ablation), --quick (1/4
//        scale; Fig. 8 runs 4 s per rate instead of 10), --scale=<f>, --csv

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/mining_engine.h"
#include "core/posting_miner.h"
#include "datagen/twitter_gen.h"
#include "index/di_index.h"
#include "index/matrix_index.h"
#include "index/seg_tree.h"
#include "stream/bounded_queue.h"
#include "stream/paced_replayer.h"
#include "stream/stream_mux.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace fcp::bench {
namespace {

constexpr uint64_t kRates[] = {1000, 2000, 3000, 4000, 5000};

// "One second of data at rate R" is measured over a window of max(5R, 25000)
// events and scaled to R events. The window amortizes periodic expiry sweeps,
// which would otherwise land in some rate points and not others.
uint64_t RateWindow(uint64_t rate) {
  return std::max<uint64_t>(5 * rate, 25000);
}

// The factor that scales a cost measured over `window` events to `rate`.
double ToRate(uint64_t rate, uint64_t window) {
  return window > 0
             ? static_cast<double>(rate) / static_cast<double>(window)
             : 0.0;
}

struct Options {
  BenchScale scale;
  bool quick = false;
  bool csv = false;
};

void Emit(const TablePrinter& table, const Options& options) {
  if (options.csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  std::cout << "\n";
}

// --- Fig. 5: the three indexes behind one segmenter -----------------------

// All three indexes fed from one segmenter. Each index's insert and expiry
// work is timed separately (Fig. 5(c)-(e)); MemoryUsage() is read directly
// (Fig. 5(a)/(b)).
class IndexTrio {
 public:
  explicit IndexTrio(const MiningParams& params)
      : params_(params), mux_(params.xi) {}

  /// Inserts every segment `event` completes into all three indexes and,
  /// with `sweep_on_cadence`, expires them every kMaintenanceInterval.
  void PushEvent(const ObjectEvent& event, bool sweep_on_cadence) {
    scratch_.clear();
    mux_.Push(event, &scratch_);
    for (const SegmentRef& ref : scratch_) {
      const Segment& segment = *ref;
      watermark_ = std::max(watermark_, segment.end_time());
      EachTimed([&](auto& index) { index.Insert(segment); });
      if (last_sweep_ == kMinTimestamp) last_sweep_ = watermark_;
      if (sweep_on_cadence &&
          watermark_ - last_sweep_ >= kMaintenanceInterval) {
        SweepNow();
      }
    }
  }

  /// Expires everything outside the tau window right now.
  void SweepNow() {
    EachTimed(
        [&](auto& index) { index.RemoveExpired(watermark_, params_.tau); });
    last_sweep_ = watermark_;
  }

  /// Seg-tree, DI-Index, Matrix.
  std::array<double, 3> bytes() const {
    return {static_cast<double>(tree_.MemoryUsage()),
            static_cast<double>(di_.MemoryUsage()),
            static_cast<double>(matrix_.MemoryUsage())};
  }
  const std::array<int64_t, 3>& nanos() const { return ns_; }

 private:
  template <typename Fn>
  void EachTimed(Fn&& fn) {
    Stopwatch timer;
    fn(tree_);
    ns_[0] += timer.ElapsedNanos();
    timer.Start();
    fn(di_);
    ns_[1] += timer.ElapsedNanos();
    timer.Start();
    fn(matrix_);
    ns_[2] += timer.ElapsedNanos();
  }

  MiningParams params_;
  StreamMux mux_;
  SegTree tree_;
  DiIndex di_;
  MatrixIndex matrix_;
  std::vector<SegmentRef> scratch_;
  Timestamp watermark_ = kMinTimestamp;
  Timestamp last_sweep_ = kMinTimestamp;
  std::array<int64_t, 3> ns_ = {0, 0, 0};
};

// Fig. 5(a)/(b): each rate point is a pure-insertion batch of R events on
// top of a freshly swept steady state (expiry cost is Fig. 5(c)-(e)'s).
void Fig5ab(const Options& options) {
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    const uint64_t warm = options.scale.Events(
        dataset == Dataset::kTraffic ? 200000 : 200000 * 5);
    const std::vector<ObjectEvent> events =
        GenerateEvents(dataset, warm + 16000, /*seed=*/42);
    IndexTrio trio(DefaultParams(dataset));
    size_t i = 0;
    for (; i < warm && i < events.size(); ++i) trio.PushEvent(events[i], true);

    TablePrinter table({"dataset", "rate/s", "seg_tree_MB", "di_index_MB",
                        "matrix_MB"});
    for (uint64_t rate : kRates) {
      trio.SweepNow();
      const std::array<double, 3> before = trio.bytes();
      const uint64_t upto = std::min<uint64_t>(i + rate, events.size());
      for (; i < upto; ++i) trio.PushEvent(events[i], false);
      const std::array<double, 3> after = trio.bytes();
      std::vector<std::string> row = {std::string(DatasetName(dataset)),
                                      std::to_string(rate)};
      for (size_t k = 0; k < 3; ++k) {
        row.push_back(
            TablePrinter::Num((after[k] - before[k]) / (1024.0 * 1024.0), 3));
      }
      table.AddRow(std::move(row));
    }
    Emit(table, options);
  }
}

// Fig. 5(c)-(e): insert + expiry work, swept on cadence, per second of data.
void Fig5cde(const Options& options) {
  struct Case {
    const char* figure;
    Dataset dataset;
    uint64_t warm_events;
    DurationMs xi;
  };
  const Case cases[] = {
      {"5(c)", Dataset::kTraffic, 200000, Seconds(60)},
      {"5(d)", Dataset::kTraffic, 100000, Seconds(40)},
      {"5(d)", Dataset::kTraffic, 100000, Seconds(60)},
      {"5(e)", Dataset::kTwitter, 200000 * 5, Seconds(60)},
  };
  for (const Case& c : cases) {
    const uint64_t warm = options.scale.Events(c.warm_events);
    MiningParams params = DefaultParams(c.dataset);
    params.xi = c.xi;
    const std::vector<ObjectEvent> events =
        GenerateEvents(c.dataset, warm + 160000, /*seed=*/42);
    IndexTrio trio(params);
    size_t i = 0;
    for (; i < warm && i < events.size(); ++i) trio.PushEvent(events[i], true);

    TablePrinter table({"figure", "dataset", "xi(s)", "rate/s", "seg_tree_ms",
                        "di_index_ms", "matrix_ms"});
    for (uint64_t rate : kRates) {
      const std::array<int64_t, 3> before = trio.nanos();
      const uint64_t begin = i;
      const uint64_t upto =
          std::min<uint64_t>(i + RateWindow(rate), events.size());
      for (; i < upto; ++i) trio.PushEvent(events[i], true);
      const std::array<int64_t, 3> after = trio.nanos();
      const double to_rate = ToRate(rate, upto - begin);
      std::vector<std::string> row = {c.figure,
                                      std::string(DatasetName(c.dataset)),
                                      std::to_string(c.xi / 1000),
                                      std::to_string(rate)};
      for (size_t k = 0; k < 3; ++k) {
        row.push_back(TablePrinter::Num(
            static_cast<double>(after[k] - before[k]) / 1e6 * to_rate, 2));
      }
      table.AddRow(std::move(row));
    }
    Emit(table, options);
  }
}

// Fig. 5(f): d1 = objects stored across live segments, d2 = Seg-tree nodes;
// the compression ratio (d1-d2)/d1 at five checkpoints of Ds.
void Fig5f(const Options& options) {
  TablePrinter table(
      {"dataset", "Ds(paper)", "compression", "nodes", "objects"});
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    const MiningParams params = DefaultParams(dataset);
    const std::vector<ObjectEvent> events = GenerateEvents(
        dataset,
        options.scale.Events(dataset == Dataset::kTraffic ? 250000
                                                          : 250000 * 5),
        /*seed=*/42);
    SegTree tree;
    StreamMux mux(params.xi);
    std::vector<SegmentRef> scratch;
    Timestamp watermark = kMinTimestamp;
    Timestamp last_sweep = kMinTimestamp;
    const uint64_t step = events.size() / 5;
    const uint64_t paper_step = 50000;  // Ds axis: VPRs (TR) / tweets
    for (size_t i = 0; i < events.size(); ++i) {
      scratch.clear();
      mux.Push(events[i], &scratch);
      for (const SegmentRef& ref : scratch) {
        tree.Insert(*ref);
        watermark = std::max(watermark, ref->end_time());
        if (last_sweep == kMinTimestamp) last_sweep = watermark;
        if (watermark - last_sweep >= kMaintenanceInterval) {
          tree.RemoveExpired(watermark, params.tau);
          last_sweep = watermark;
        }
      }
      if (step > 0 && (i + 1) % step == 0 && (i + 1) / step <= 5) {
        table.AddRow({std::string(DatasetName(dataset)),
                      std::to_string((i + 1) / step * paper_step),
                      TablePrinter::Num(tree.CompressionRatio(), 3),
                      std::to_string(tree.num_nodes()),
                      std::to_string(tree.total_objects())});
      }
    }
  }
  Emit(table, options);
}

// --- Figs. 6-7: one miner behind a segmenter, swept over kRates -----------

// Cost split of one second of data with a miner.
struct CostSample {
  double mining_ms = 0;
  double maintenance_ms = 0;
  double total_ms() const { return mining_ms + maintenance_ms; }
};

// Warms a `kind` miner behind a segmenter on the first `warm` events, then
// measures one second of data at each of kRates on the events that follow,
// from the miner's stats deltas. Segmentation cost is excluded (the paper
// measures index structures and algorithms, not the splitter).
std::vector<CostSample> RateSweep(MinerKind kind, const MiningParams& params,
                                  const std::vector<ObjectEvent>& events,
                                  uint64_t warm) {
  StreamMux mux(params.xi);
  const std::unique_ptr<FcpMiner> miner = MakeMiner(kind, params);
  std::vector<SegmentRef> scratch;
  std::vector<Fcp> sink;
  auto feed = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      scratch.clear();
      mux.Push(events[i], &scratch);
      for (const SegmentRef& segment : scratch) {
        sink.clear();
        miner->AddSegment(segment, &sink);
      }
    }
  };
  size_t cursor = std::min<size_t>(warm, events.size());
  feed(0, cursor);
  std::vector<CostSample> samples;
  for (uint64_t rate : kRates) {
    const size_t end =
        std::min<size_t>(cursor + RateWindow(rate), events.size());
    const MinerStats before = miner->stats();
    feed(cursor, end);
    const MinerStats& after = miner->stats();
    const double to_rate = ToRate(rate, end - cursor);
    samples.push_back(
        {static_cast<double>(after.mining_ns - before.mining_ns) / 1e6 *
             to_rate,
         static_cast<double>(after.maintenance_ns - before.maintenance_ns) /
             1e6 * to_rate});
    cursor = end;
  }
  return samples;
}

// Fig. 6(a)-(d): one sweep per miner gives both the mining cost (6(a)/(b))
// and the total cost, maintenance included (6(c)/(d)).
void Fig6abcd(const Options& options) {
  const MinerKind kinds[] = {MinerKind::kCooMine, MinerKind::kDiMine,
                             MinerKind::kMatrixMine};
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    const uint64_t warm = options.scale.Events(
        dataset == Dataset::kTraffic ? 100000 : 200000 * 5);
    const std::vector<ObjectEvent> events =
        GenerateEvents(dataset, warm + 160000, /*seed=*/42);
    std::vector<std::vector<CostSample>> sweeps;
    for (MinerKind kind : kinds) {
      sweeps.push_back(RateSweep(kind, DefaultParams(dataset), events, warm));
    }
    TablePrinter table({"figure", "dataset", "rate/s", "coomine_mining_ms",
                        "dimine_mining_ms", "matrixmine_mining_ms",
                        "coomine_total_ms", "dimine_total_ms",
                        "matrixmine_total_ms"});
    for (size_t r = 0; r < std::size(kRates); ++r) {
      std::vector<std::string> row = {
          dataset == Dataset::kTraffic ? "6(a)/(c)" : "6(b)/(d)",
          std::string(DatasetName(dataset)), std::to_string(kRates[r])};
      for (const auto& sweep : sweeps) {
        row.push_back(TablePrinter::Num(sweep[r].mining_ms, 2));
      }
      for (const auto& sweep : sweeps) {
        row.push_back(TablePrinter::Num(sweep[r].total_ms(), 2));
      }
      table.AddRow(std::move(row));
    }
    Emit(table, options);
  }
}

// Fig. 6(e)/(f): CooMine's mining cost at Ds in {100k, 150k, 200k}
// (1 Ds unit = 1 VPR on TR, a ~5-word tweet on Twitter).
void Fig6ef(const Options& options) {
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    const uint64_t paper_unit = dataset == Dataset::kTraffic ? 1 : 5;
    TablePrinter table(
        {"figure", "dataset", "Ds", "rate/s", "coomine_mining_ms"});
    for (uint64_t ds_units : {100000ull, 150000ull, 200000ull}) {
      const uint64_t warm = options.scale.Events(ds_units * paper_unit);
      const std::vector<ObjectEvent> events =
          GenerateEvents(dataset, warm + 160000, /*seed=*/42);
      const std::vector<CostSample> sweep =
          RateSweep(MinerKind::kCooMine, DefaultParams(dataset), events, warm);
      for (size_t r = 0; r < sweep.size(); ++r) {
        table.AddRow({dataset == Dataset::kTraffic ? "6(e)" : "6(f)",
                      std::string(DatasetName(dataset)),
                      std::to_string(ds_units), std::to_string(kRates[r]),
                      TablePrinter::Num(sweep[r].mining_ms, 2)});
      }
    }
    Emit(table, options);
  }
}

// Fig. 7: CooMine's mining cost on TR (Ds = 100k) at xi in {20, 40, 60} s
// (7(a), tau = 30 min) and tau in {30, 60, 90} min (7(b), xi = 60 s).
void Fig7(const Options& options) {
  const uint64_t warm = options.scale.Events(100000);
  const std::vector<ObjectEvent> events =
      GenerateEvents(Dataset::kTraffic, warm + 160000, /*seed=*/42);
  struct Case {
    const char* figure;
    DurationMs xi;
    DurationMs tau;
  };
  const Case cases[] = {
      {"7(a)", Seconds(20), Minutes(30)}, {"7(a)", Seconds(40), Minutes(30)},
      {"7(a)", Seconds(60), Minutes(30)}, {"7(b)", Seconds(60), Minutes(30)},
      {"7(b)", Seconds(60), Minutes(60)}, {"7(b)", Seconds(60), Minutes(90)},
  };
  TablePrinter table(
      {"figure", "xi(s)", "tau(min)", "rate/s", "coomine_mining_ms"});
  for (const Case& c : cases) {
    MiningParams params = DefaultParams(Dataset::kTraffic);
    params.xi = c.xi;
    params.tau = c.tau;
    const std::vector<CostSample> sweep =
        RateSweep(MinerKind::kCooMine, params, events, warm);
    for (size_t r = 0; r < sweep.size(); ++r) {
      table.AddRow({c.figure, std::to_string(c.xi / 1000),
                    std::to_string(c.tau / Minutes(1)),
                    std::to_string(kRates[r]),
                    TablePrinter::Num(sweep[r].mining_ms, 2)});
    }
  }
  Emit(table, options);
}

// --- Fig. 8: a paced producer, a 5000-slot queue, the CooMine pipeline ----

constexpr size_t kQueueCapacity = 5000;  // the paper's buffer size

// Single-thread pipeline throughput (events/s) on this workload.
double CalibrateThroughput(Dataset dataset,
                           const std::vector<ObjectEvent>& events) {
  MiningEngine engine(MinerKind::kCooMine, DefaultParams(dataset));
  const size_t n = std::min<size_t>(events.size(), 60000);
  Stopwatch clock;
  for (size_t i = 0; i < n; ++i) engine.PushEvent(events[i]);
  return static_cast<double>(n) / clock.ElapsedSeconds();
}

// Offers `events` at `rate` for `duration_s`, sampling the queue occupancy
// once a second into `table`.
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

// Fig. 8: the C++ pipeline is far faster than the paper's Java prototype,
// so to reproduce the *shape* the rates offered are ~{0.5x, 0.9x, 1.3x} of
// the calibrated drain throughput.
void Fig8(const Options& options) {
  const double duration_s = options.quick ? 4.0 : 10.0;
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    // Enough events for the highest offered rate over the duration.
    const uint64_t needed = static_cast<uint64_t>(duration_s * 2e6) + 100000;
    const std::vector<ObjectEvent> events = GenerateEvents(
        dataset, std::min<uint64_t>(needed, 3000000), /*seed=*/42);
    const double capacity = CalibrateThroughput(dataset, events);
    std::printf("[%s] calibrated pipeline capacity: %.0f events/s "
                "(paper, Java/2011: TR 8000/s, Twitter 4000/s)\n",
                std::string(DatasetName(dataset)).c_str(), capacity);
    TablePrinter table({"dataset", "rate/s", "t(s)", "queue_occupancy"});
    for (double factor : {0.5, 0.9, 1.3}) {
      RunRate(dataset, events, factor * capacity, duration_s, &table);
    }
    Emit(table, options);
  }
}

// --- Figs. 9-10: distinct FCPs --------------------------------------------

// The distinct FCPs `engine` has found, one cell per size k = 2..last_k;
// sizes past the engine's max_pattern_size read "-".
std::vector<std::string> DistinctCounts(const MiningEngine& engine,
                                        uint32_t last_k) {
  const auto& counts = engine.collector().distinct_patterns_by_size();
  std::vector<std::string> cells;
  for (uint32_t k = 2; k <= last_k; ++k) {
    const auto it = counts.find(k);
    cells.push_back(k > engine.params().max_pattern_size ? "-"
                    : it == counts.end()                 ? "0"
                                         : std::to_string(it->second));
  }
  return cells;
}

// Fig. 9: cumulative distinct FCPs per size k at five checkpoints of Ds,
// in one pass per dataset (TR k = 2..5, Twitter k = 2..4).
void Fig9(const Options& options) {
  constexpr uint64_t kCheckpoints = 5;
  TablePrinter table({"figure", "dataset", "Ds", "k=2", "k=3", "k=4", "k=5"});
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    const bool traffic = dataset == Dataset::kTraffic;
    MiningParams params = DefaultParams(dataset);
    params.min_pattern_size = 2;
    params.max_pattern_size = traffic ? 5 : 4;
    const std::vector<ObjectEvent> events = GenerateEvents(
        dataset, options.scale.Events(200000 * (traffic ? 1 : 5)),
        /*seed=*/42);
    MiningEngine engine(MinerKind::kCooMine, params);
    const uint64_t step = events.size() / kCheckpoints;
    for (size_t i = 0; i < events.size(); ++i) {
      engine.PushEvent(events[i]);
      if (step > 0 && (i + 1) % step == 0 &&
          (i + 1) / step <= kCheckpoints) {
        std::vector<std::string> row = {
            traffic ? "9(a)" : "9(b)", std::string(DatasetName(dataset)),
            std::to_string((i + 1) / step * 200000 / kCheckpoints)};
        for (std::string& cell : DistinctCounts(engine, 5)) {
          row.push_back(std::move(cell));
        }
        table.AddRow(std::move(row));
      }
    }
  }
  Emit(table, options);
}

// Fig. 10: distinct FCPs of size 2..4 after Ds = 100k, per theta
// (TR theta in {3, 4, 5}; Twitter theta in {5, 10, 15, 20}).
void Fig10(const Options& options) {
  TablePrinter table({"figure", "dataset", "theta", "k=2", "k=3", "k=4"});
  for (Dataset dataset : {Dataset::kTraffic, Dataset::kTwitter}) {
    const bool traffic = dataset == Dataset::kTraffic;
    const std::vector<ObjectEvent> events = GenerateEvents(
        dataset, options.scale.Events(100000 * (traffic ? 1 : 5)),
        /*seed=*/42);
    const std::vector<uint32_t> thetas =
        traffic ? std::vector<uint32_t>{3, 4, 5}
                : std::vector<uint32_t>{5, 10, 15, 20};
    for (uint32_t theta : thetas) {
      MiningParams params = DefaultParams(dataset);
      params.theta = theta;
      params.min_pattern_size = 2;
      params.max_pattern_size = 4;
      MiningEngine engine(MinerKind::kCooMine, params);
      for (const ObjectEvent& event : events) engine.PushEvent(event);
      engine.Flush();
      std::vector<std::string> row = {traffic ? "10(a)" : "10(b)",
                                      std::string(DatasetName(dataset)),
                                      std::to_string(theta)};
      for (std::string& cell : DistinctCounts(engine, 4)) {
        row.push_back(std::move(cell));
      }
      table.AddRow(std::move(row));
    }
  }
  Emit(table, options);
}

// --- Tables 3-4: hot events on the Twitter-like workload -----------------

// The real Tweets2011 events are unavailable; the generator plants 10
// keyword bursts across 80-400 user streams. Table 3 lists the top mined
// keyword FCPs at theta = 60 with the planted event each one reveals;
// Table 4 is the event legend.
void Tables34(const Options& options) {
  TwitterConfig config;
  config.num_users = 8000;
  config.vocab_size = 50000;
  config.total_tweets = options.scale.Events(120000);
  config.num_events = 10;
  config.event_participants_min = 80;
  config.event_participants_max = 400;
  config.seed = 2011;
  const TwitterTrace trace = GenerateTwitter(config);

  MiningParams params = DefaultParams(Dataset::kTwitter);
  params.theta = 60;
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;
  MiningEngine engine(MinerKind::kCooMine, params);
  std::map<Pattern, size_t> support;
  auto absorb = [&](std::vector<Fcp> fcps) {
    for (const Fcp& fcp : fcps) {
      size_t& best = support[fcp.objects];
      best = std::max(best, fcp.streams.size());
    }
  };
  for (const ObjectEvent& event : trace.events) absorb(engine.PushEvent(event));
  absorb(engine.Flush());

  std::vector<std::pair<Pattern, size_t>> ranked(support.begin(),
                                                 support.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  TablePrinter table3({"FCP", "num_streams", "hot_event"});
  for (const auto& [pattern, streams] : ranked) {
    std::string words;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (i) words += " ";
      words += trace.WordName(pattern[i]);
    }
    std::string label = "-";
    for (size_t e = 0; e < trace.planted_events.size(); ++e) {
      const EventPlan& plan = trace.planted_events[e];
      if (std::includes(plan.keywords.begin(), plan.keywords.end(),
                        pattern.begin(), pattern.end())) {
        label = "event" + std::to_string(e + 1);
        break;
      }
    }
    table3.AddRow({words, std::to_string(streams), label});
    if (table3.num_rows() >= 20) break;
  }
  Emit(table3, options);

  TablePrinter table4({"event", "meaning", "participants", "mined?"});
  for (size_t e = 0; e < trace.planted_events.size(); ++e) {
    const EventPlan& plan = trace.planted_events[e];
    table4.AddRow({"event" + std::to_string(e + 1), plan.name,
                   std::to_string(plan.num_participants),
                   support.contains(plan.keywords) ? "yes" : "no"});
  }
  Emit(table4, options);
}

// --- Ablation: Seg-tree design choices on TR -------------------------------

// DistanceBound pruning on/off (nodes stepped, runs entered, SLCP time).
// Each probe sweeps the tree at its watermark first, as CooMine does.
void Ablation(const Options& options) {
  const MiningParams params = DefaultParams(Dataset::kTraffic);
  const std::vector<ObjectEvent> events = GenerateEvents(
      Dataset::kTraffic, options.scale.Events(100000), /*seed=*/42);
  const std::vector<Segment> segments = SegmentTrace(events, params.xi);
  TablePrinter table({"ablation", "variant", "metric1", "metric2", "metric3"});

  for (bool use_bound : {true, false}) {
    SegTreeOptions tree_options;
    tree_options.use_distance_bound = use_bound;
    SegTree tree(tree_options);
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
      tree.RemoveExpired(watermark, params.tau);
      rows_total += tree.Slcp(segments[i]).size();
    }
    table.AddRow({"distance_bound", use_bound ? "on" : "off",
                  TablePrinter::Num(clock.ElapsedMillis(), 1) + " ms",
                  std::to_string(tree.stats().distance_bound_visits) +
                      " nodes visited (" +
                      std::to_string(tree.stats().runs_visited) + " runs)",
                  std::to_string(rows_total) + " LCP rows"});
  }
  Emit(table, options);
}

// --- The figure table -----------------------------------------------------

struct Figure {
  const char* id;
  const char* title;
  const char* note;
  void (*run)(const Options&);
};

constexpr Figure kFigures[] = {
    {"5ab", "Fig. 5(a)/(b): index memory vs arrival rate",
     "delta index memory (MB) after ingesting R events past the Ds warm-up;\n"
     "TR: Ds=200k VPRs, xi=60s; Twitter: Ds=200k tweets (~5 words each).",
     Fig5ab},
    {"5cde", "Fig. 5(c)/(d)/(e): index maintenance cost vs arrival rate",
     "ms of insert+expiry work per R events, measured after a Ds warm-up.",
     Fig5cde},
    {"5f", "Fig. 5(f): Seg-tree compression ratio vs Ds",
     "(stored objects - tree nodes) / stored objects over live segments;\n"
     "Ds column reports the paper-equivalent scale point.",
     Fig5f},
    {"6abcd",
     "Fig. 6(a)-(d): mining and total cost of the three algorithms vs "
     "arrival rate",
     "ms per R events after a Ds warm-up (TR: Ds=100k VPRs; Twitter: 200k\n"
     "tweets). *_mining_ms is the FCP search (6(a)/(b)); *_total_ms adds\n"
     "index maintenance (6(c)/(d), log axis for TR in the paper).",
     Fig6abcd},
    {"6ef", "Fig. 6(e)/(f): CooMine mining cost vs arrival rate across Ds",
     "Ds (the already-processed volume) should have little effect on the\n"
     "per-second mining cost.",
     Fig6ef},
    {"7", "Fig. 7(a)/(b): CooMine mining cost vs xi and tau (TR, Ds=100k)",
     "7(a): larger xi -> longer segments -> more LCP work.\n"
     "7(b): tau has little impact (search scope is bounded by SLCP).",
     Fig7},
    {"8", "Fig. 8(a)/(b): maximum sustainable workload (queue occupancy)",
     "5000-slot buffer between a paced producer and the CooMine pipeline;\n"
     "occupancy pinned at 5000 == unsustainable rate (queue saturation).",
     Fig8},
    {"9", "Fig. 9(a)/(b): number of distinct FCPs vs Ds",
     "cumulative distinct patterns per size k; more data -> more FCPs,\n"
     "smaller k -> more FCPs. Ds column is the paper-equivalent point\n"
     "(TR: VPRs, Twitter: tweets).",
     Fig9},
    {"10", "Fig. 10(a)/(b): number of distinct FCPs vs theta",
     "raising the stream-support threshold sharply reduces the FCP count.",
     Fig10},
    {"t34",
     "Tables 3-4: typical FCPs and the hot events they reveal (theta high)",
     "synthetic stand-in for the paper's Tweets2011 events; keyword sets\n"
     "bursting across many user streams surface as FCPs.",
     Tables34},
    {"ablation", "Ablation: Seg-tree design choices (TR workload)",
     "DistanceBound pruning on and off.", Ablation},
};

// The entries --figure names, in table order; every entry without it.
// An unknown id exits 2 naming it.
std::vector<const Figure*> SelectFigures(const Flags& flags) {
  std::vector<std::string> ids;
  std::stringstream list(flags.GetString("figure", ""));
  for (std::string id; std::getline(list, id, ',');) {
    const auto known = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& figure) { return id == figure.id; });
    if (known == std::end(kFigures)) {
      std::string valid;
      for (const Figure& figure : kFigures) {
        valid += std::string(" ") + figure.id;
      }
      std::fprintf(stderr, "unknown figure '%s' (one of:%s)\n", id.c_str(),
                   valid.c_str());
      std::exit(2);
    }
    ids.push_back(id);
  }
  std::vector<const Figure*> selected;
  for (const Figure& figure : kFigures) {
    if (ids.empty() ||
        std::find(ids.begin(), ids.end(), figure.id) != ids.end()) {
      selected.push_back(&figure);
    }
  }
  return selected;
}

}  // namespace
}  // namespace fcp::bench

int main(int argc, char** argv) {
  const fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"figure", "quick", "scale", "csv"});
  const fcp::bench::Options options{fcp::bench::BenchScale(flags),
                                    flags.GetBool("quick", false),
                                    flags.GetBool("csv", false)};
  for (const fcp::bench::Figure* figure : fcp::bench::SelectFigures(flags)) {
    fcp::bench::PrintHeader(figure->title, figure->note);
    figure->run(options);
  }
  return 0;
}
