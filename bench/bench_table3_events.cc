// Reproduces Tables 3-4: typical FCPs mined from the Twitter-like workload
// at a high support threshold (the paper uses theta=60), with the hot events
// they reveal.
//
// The real Tweets2011 events are unavailable; the generator plants synthetic
// hot events (keyword bursts across many user streams). The table lists the
// top mined keyword FCPs, their stream support, and the planted event each
// one reveals — the Table 3/4 layout.
//
// Flags: --tweets=N (default 120000), --theta=N (default 60), --quick

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.h"
#include "core/mining_engine.h"
#include "datagen/twitter_gen.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown({"tweets", "quick", "theta"});
  uint64_t tweets = static_cast<uint64_t>(flags.GetInt("tweets", 120000));
  if (flags.GetBool("quick", false)) tweets /= 4;

  fcp::bench::PrintHeader(
      "Tables 3-4: typical FCPs and the hot events they reveal (theta high)",
      "synthetic stand-in for the paper's Tweets2011 events; keyword sets\n"
      "bursting across many user streams surface as FCPs.");

  fcp::TwitterConfig config;
  config.num_users = 8000;
  config.vocab_size = 50000;
  config.total_tweets = tweets;
  config.num_events = 10;
  config.event_participants_min = 80;
  config.event_participants_max = 400;
  config.seed = 2011;
  const fcp::TwitterTrace trace = GenerateTwitter(config);

  fcp::MiningParams params = fcp::bench::DefaultParams(
      fcp::bench::Dataset::kTwitter);
  params.theta = static_cast<uint32_t>(flags.GetInt("theta", 60));
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;

  fcp::MiningEngine engine(fcp::MinerKind::kCooMine, params);
  std::map<fcp::Pattern, size_t> support;
  auto absorb = [&](std::vector<fcp::Fcp> fcps) {
    for (const fcp::Fcp& fcp : fcps) {
      size_t& best = support[fcp.objects];
      best = std::max(best, fcp.streams.size());
    }
  };
  for (const fcp::ObjectEvent& event : trace.events) {
    absorb(engine.PushEvent(event));
  }
  absorb(engine.Flush());

  // Table 3: FCPs, stream counts, event labels.
  std::vector<std::pair<fcp::Pattern, size_t>> ranked(support.begin(),
                                                      support.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  fcp::TablePrinter table3({"FCP", "num_streams", "hot_event"});
  size_t event_hits = 0;
  for (const auto& [pattern, streams] : ranked) {
    std::string words;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (i) words += " ";
      words += trace.WordName(pattern[i]);
    }
    std::string label = "-";
    for (size_t e = 0; e < trace.planted_events.size(); ++e) {
      const fcp::EventPlan& plan = trace.planted_events[e];
      if (std::includes(plan.keywords.begin(), plan.keywords.end(),
                        pattern.begin(), pattern.end())) {
        label = "event" + std::to_string(e + 1);
        ++event_hits;
        break;
      }
    }
    table3.AddRow({words, std::to_string(streams), label});
    if (table3.num_rows() >= 20) break;
  }
  table3.Print(std::cout);

  // Table 4: the event legend.
  std::printf("\n");
  fcp::TablePrinter table4({"event", "meaning", "participants", "mined?"});
  for (size_t e = 0; e < trace.planted_events.size(); ++e) {
    const fcp::EventPlan& plan = trace.planted_events[e];
    table4.AddRow({"event" + std::to_string(e + 1), plan.name,
                   std::to_string(plan.num_participants),
                   support.contains(plan.keywords) ? "yes" : "no"});
  }
  table4.Print(std::cout);
  return 0;
}
