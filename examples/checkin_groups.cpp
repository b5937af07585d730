// Location-based-services scenario from the paper's introduction: each
// mobile user's check-ins form a stream of venue ids; groups of venues
// visited together across many users within a short span reveal people
// "hanging out together" — targets for group-buying offers.
//
// This example also demonstrates the parallel ingestion engine
// (ParallelEngine) and the report helpers (maximal patterns / top-K).
//
// Usage: ./build/examples/checkin_groups [--users=N] [--checkins=N]
//        [--shards=N] [--seed=N]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/parallel_engine.h"
#include "core/pattern_report.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/zipf.h"

namespace {

struct CheckinTrace {
  std::vector<fcp::ObjectEvent> events;
  // Ground truth: "hangout" venue circuits many users walk together.
  std::vector<fcp::Pattern> hangouts;
};

// Users check into Zipf-popular venues; planted "hangout groups" of users
// tour a fixed circuit of venues within minutes of each other.
CheckinTrace GenerateCheckins(uint32_t users, uint32_t checkins,
                              uint64_t seed) {
  constexpr uint32_t kVenues = 2000;
  constexpr uint32_t kHangouts = 6;
  constexpr uint32_t kCircuit = 3;    // venues per hangout circuit
  constexpr uint32_t kGroupSize = 8;  // users per hangout
  fcp::Rng rng(seed);
  fcp::ZipfDistribution venue_popularity(kVenues, 1.0);

  CheckinTrace trace;
  const fcp::Timestamp horizon =
      static_cast<fcp::Timestamp>(checkins / users + 1) * fcp::Minutes(30);

  // Background check-ins.
  for (uint32_t user = 0; user < users; ++user) {
    fcp::Timestamp t = static_cast<fcp::Timestamp>(
        rng.Below(static_cast<uint64_t>(fcp::Minutes(30))));
    while (t < horizon) {
      trace.events.push_back(
          {user, static_cast<fcp::ObjectId>(venue_popularity.Sample(rng)),
           t});
      t += fcp::Minutes(20) + static_cast<fcp::Timestamp>(
                                  rng.Below(fcp::Minutes(40)));
    }
  }

  // Planted hangout circuits: reserved venue ids >= kVenues.
  for (uint32_t h = 0; h < kHangouts; ++h) {
    fcp::Pattern circuit;
    for (uint32_t v = 0; v < kCircuit; ++v) {
      circuit.push_back(kVenues + h * kCircuit + v);
    }
    trace.hangouts.push_back(circuit);
    const fcp::Timestamp start = static_cast<fcp::Timestamp>(
        rng.Below(static_cast<uint64_t>(horizon - fcp::Minutes(60))));
    for (uint32_t g = 0; g < kGroupSize; ++g) {
      const fcp::StreamId user = static_cast<fcp::StreamId>(rng.Below(users));
      fcp::Timestamp t = start + static_cast<fcp::Timestamp>(
                                     rng.Below(fcp::Minutes(5)));
      for (fcp::ObjectId venue : circuit) {
        trace.events.push_back({user, venue, t});
        t += fcp::Minutes(3) + static_cast<fcp::Timestamp>(
                                   rng.Below(fcp::Minutes(5)));
      }
    }
  }

  std::sort(trace.events.begin(), trace.events.end(),
            [](const fcp::ObjectEvent& a, const fcp::ObjectEvent& b) {
              return a.time < b.time;
            });
  if (trace.events.size() > checkins) trace.events.resize(checkins);
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  const uint32_t users = static_cast<uint32_t>(flags.GetInt("users", 2000));
  const uint32_t checkins =
      static_cast<uint32_t>(flags.GetInt("checkins", 60000));
  const uint32_t shards =
      static_cast<uint32_t>(flags.GetInt("shards", 1));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 5));

  std::printf("Generating %u check-ins from %u users...\n", checkins, users);
  const CheckinTrace trace = GenerateCheckins(users, checkins, seed);

  fcp::MiningParams params;
  params.xi = fcp::Minutes(30);  // a venue circuit takes up to half an hour
  params.tau = fcp::Minutes(60);
  params.theta = 5;              // at least 5 people together
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;

  fcp::ParallelEngineOptions options;
  options.num_miner_shards = shards;
  fcp::ParallelEngine engine(fcp::MinerKind::kCooMine, params, options);

  fcp::Stopwatch clock;
  for (const fcp::ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();
  const double elapsed = clock.ElapsedSeconds();

  fcp::PatternSupportIndex report;
  report.AddAll(engine.results());

  std::printf("\n%zu events in %.2fs (%.0f/s, %u miner shards)\n",
              trace.events.size(), elapsed,
              static_cast<double>(trace.events.size()) / elapsed, shards);
  std::printf("%zu distinct venue patterns; maximal ones:\n", report.size());
  for (const auto& entry : report.MaximalPatterns()) {
    if (entry.pattern.size() < 2) continue;
    std::printf("  venues {");
    for (size_t i = 0; i < entry.pattern.size(); ++i) {
      std::printf("%s%u", i ? ", " : "", entry.pattern[i]);
    }
    std::printf("} visited together by %zu users\n", entry.support);
  }

  size_t recovered = 0;
  for (const fcp::Pattern& circuit : trace.hangouts) {
    if (report.SupportOf(circuit) >= params.theta) ++recovered;
  }
  std::printf("\nPlanted hangout circuits recovered: %zu / %zu\n", recovered,
              trace.hangouts.size());
  return 0;
}
