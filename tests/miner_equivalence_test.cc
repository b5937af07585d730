// The central cross-validation property: CooMine, DIMine, MatrixMine and the
// brute-force oracle produce identical FCPs (patterns AND supporting stream
// sets) on every trigger, across random workloads and a parameter grid that
// includes min_pattern_size 1, 2 and 3.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/miner.h"
#include "stream/segment.h"
#include "stream/stream_mux.h"
#include "test_util.h"
#include "util/rng.h"

namespace fcp {
namespace {

using ::fcp::testing::FullSignatures;
using ::fcp::testing::SignaturesOf;

struct GridParams {
  uint64_t seed;
  uint32_t theta;
  DurationMs tau;
  uint32_t max_k;
  uint32_t min_size = 1;  ///< min_pattern_size
};

// Random multi-stream segment workload: segments arrive in end-time order,
// with object overlap engineered so that cross-stream patterns happen. With
// `one_stream_each`, every segment is a stream of its own, so no trigger has
// a previous trigger on its stream.
std::vector<Segment> RandomWorkload(uint64_t seed, size_t count,
                                    bool one_stream_each = false) {
  Rng rng(seed);
  std::vector<Segment> segments;
  Timestamp now = 0;
  for (SegmentId id = 0; id < count; ++id) {
    now += static_cast<Timestamp>(rng.Below(Minutes(2)));
    const StreamId stream = static_cast<StreamId>(rng.Below(5));
    const size_t length = 1 + rng.Below(6);
    std::vector<SegmentEntry> entries;
    Timestamp t = now;
    for (size_t i = 0; i < length; ++i) {
      // Small object universe -> plenty of collisions across streams.
      entries.push_back(SegmentEntry{static_cast<ObjectId>(rng.Below(12)), t});
      t += static_cast<Timestamp>(rng.Below(Seconds(5)));
    }
    segments.emplace_back(id, one_stream_each ? static_cast<StreamId>(id)
                                              : stream,
                          std::move(entries));
  }
  return segments;
}

// Mines `workload` through the brute-force oracle and the three Apriori
// miners (in that order), checking every miner against the oracle on every
// trigger, and returns the miners.
std::vector<std::unique_ptr<FcpMiner>> MineAll(
    const MiningParams& params, const std::vector<Segment>& workload,
    size_t* reference_fcps) {
  std::vector<std::unique_ptr<FcpMiner>> miners;
  miners.push_back(MakeMiner(MinerKind::kBruteForce, params));
  miners.push_back(MakeMiner(MinerKind::kCooMine, params));
  miners.push_back(MakeMiner(MinerKind::kDiMine, params));
  miners.push_back(MakeMiner(MinerKind::kMatrixMine, params));
  std::vector<Fcp> reference, candidate;
  *reference_fcps = 0;
  for (const Segment& segment : workload) {
    reference.clear();
    miners[0]->AddSegment(segment, &reference);
    *reference_fcps += reference.size();
    const auto want = SignaturesOf(reference);
    for (size_t i = 1; i < miners.size(); ++i) {
      candidate.clear();
      miners[i]->AddSegment(segment, &candidate);
      EXPECT_EQ(SignaturesOf(candidate), want)
          << miners[i]->name() << " disagrees with BruteForce on segment "
          << segment.DebugString();
    }
  }
  return miners;
}

// DIMine and MatrixMine run one driver over the same supporters (and drop
// the same ones under the size floor), so they do identical work. CooMine
// emits the same FCPs from as many probe objects. Its new-object rule
// (DESIGN.md §2.1) loads only the supporters holding an object new to the
// trigger, so its candidates are a subset of theirs; without the rule the
// work is identical.
void ExpectSameWork(const std::vector<std::unique_ptr<FcpMiner>>& miners) {
  const MinerStats& coo = miners[1]->stats();
  const MinerStats& di = miners[2]->stats();
  const MinerStats& matrix = miners[3]->stats();
  EXPECT_EQ(matrix.candidates_checked, di.candidates_checked);
  EXPECT_EQ(matrix.candidates_pruned, di.candidates_pruned);
  EXPECT_EQ(matrix.fcps_emitted, di.fcps_emitted);
  EXPECT_EQ(matrix.slcp_probes, di.slcp_probes);
  for (const MinerStats* other : {&di, &matrix}) {
    EXPECT_EQ(coo.fcps_emitted, other->fcps_emitted);
    EXPECT_EQ(coo.slcp_probes, other->slcp_probes);
    EXPECT_LE(coo.candidates_checked, other->candidates_checked);
    if (coo.new_object_triggers == 0) {
      EXPECT_EQ(coo.candidates_checked, other->candidates_checked);
      EXPECT_EQ(coo.candidates_pruned, other->candidates_pruned);
    }
  }
  EXPECT_LE(coo.reemissions, coo.log_patterns_certified);
  EXPECT_LE(coo.reemissions, coo.fcps_emitted);
}

class MinerEquivalenceTest : public ::testing::TestWithParam<GridParams> {};

TEST_P(MinerEquivalenceTest, AllMinersAgreeOnEveryTrigger) {
  const GridParams grid = GetParam();
  MiningParams params;
  params.xi = Minutes(2);
  params.tau = grid.tau;
  params.theta = grid.theta;
  params.min_pattern_size = grid.min_size;
  params.max_pattern_size = grid.max_k;
  ASSERT_TRUE(params.Validate().ok());

  size_t reference_fcps = 0;
  const auto miners =
      MineAll(params, RandomWorkload(grid.seed, 150), &reference_fcps);

  // The size-floor legs must report something, or they test nothing.
  if (grid.min_size > 1) {
    EXPECT_GT(reference_fcps, 0u) << "the workload mined nothing";
  }
  ExpectSameWork(miners);
}

// With one stream per segment no trigger has a previous trigger on its
// stream, so CooMine never restricts a trigger to its new objects and the
// three Apriori miners do the very same work.
TEST_P(MinerEquivalenceTest, IdenticalWorkWithoutThePreviousTrigger) {
  const GridParams grid = GetParam();
  MiningParams params;
  params.xi = Minutes(2);
  params.tau = grid.tau;
  params.theta = grid.theta;
  params.min_pattern_size = grid.min_size;
  params.max_pattern_size = grid.max_k;
  ASSERT_TRUE(params.Validate().ok());
  size_t reference_fcps = 0;
  const auto miners =
      MineAll(params, RandomWorkload(grid.seed, 150, /*one_stream_each=*/true),
              &reference_fcps);
  EXPECT_EQ(miners[1]->stats().new_object_triggers, 0u);
  EXPECT_EQ(miners[1]->stats().reemissions, 0u);
  ExpectSameWork(miners);
}

std::vector<GridParams> MakeGrid() {
  std::vector<GridParams> grid;
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (uint32_t theta : {1u, 2u, 3u}) {
      grid.push_back({seed, theta, Minutes(10), 4});
    }
    // Tight tau exercises expiry; large max_k exercises deep Apriori.
    grid.push_back({seed, 2, Minutes(3), 6});
    grid.push_back({seed, 4, Minutes(30), 3});
    // A size floor: supporters sharing fewer than min_size objects with the
    // trigger are left out by every Apriori miner.
    for (uint32_t min_size : {2u, 3u}) {
      grid.push_back({seed, 2, Minutes(10), 5, min_size});
      grid.push_back({seed, 3, Minutes(30), 5, min_size});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MinerEquivalenceTest, ::testing::ValuesIn(MakeGrid()),
    [](const ::testing::TestParamInfo<GridParams>& info) {
      return "seed" + std::to_string(info.param.seed) + "_theta" +
             std::to_string(info.param.theta) + "_tau" +
             std::to_string(info.param.tau / Minutes(1)) + "_k" +
             std::to_string(info.param.max_k) +
             (info.param.min_size == 1
                  ? ""
                  : "_m" + std::to_string(info.param.min_size));
    });

// Equivalence must also hold when segments come from the real segmenter over
// a realistic interleaved event feed. Four streams are busy; a fifth is idle,
// with bursts more than tau apart. A segment completes only when its
// stream's next event arrives, so each idle burst reaches the miners after
// it has expired: as a trigger it must not support its own patterns. The
// feed ends with FlushAll, which completes every open window.
TEST(MinerEquivalenceStreamTest, SegmenterFedMinersAgree) {
  MiningParams params;
  params.xi = Seconds(30);
  params.tau = Minutes(2);
  params.theta = 2;
  params.max_pattern_size = 4;

  Rng rng(77);
  StreamMux mux(params.xi);
  std::vector<std::unique_ptr<FcpMiner>> miners;
  miners.push_back(MakeMiner(MinerKind::kBruteForce, params));
  miners.push_back(MakeMiner(MinerKind::kCooMine, params));
  miners.push_back(MakeMiner(MinerKind::kDiMine, params));
  miners.push_back(MakeMiner(MinerKind::kMatrixMine, params));

  constexpr StreamId kIdleStream = 4;
  std::vector<SegmentRef> completed;
  std::vector<Fcp> reference, candidate;
  auto mine_completed = [&] {
    for (const SegmentRef& segment : completed) {
      reference.clear();
      miners[0]->AddSegment(segment, &reference);
      const auto want = FullSignatures(reference);
      for (size_t m = 1; m < miners.size(); ++m) {
        candidate.clear();
        miners[m]->AddSegment(segment, &candidate);
        ASSERT_EQ(FullSignatures(candidate), want)
            << miners[m]->name() << " @ " << segment->DebugString();
      }
    }
    completed.clear();
  };
  Timestamp now = 0;
  Timestamp last_idle = 0;
  for (int i = 0; i < 1500; ++i) {
    now += static_cast<Timestamp>(rng.Below(Seconds(4)));
    if (now - last_idle > params.tau + params.xi) {
      for (int burst = 0; burst < 3; ++burst) {
        mux.Push(ObjectEvent{kIdleStream,
                             static_cast<ObjectId>(rng.Below(6)), now},
                 &completed);
      }
      last_idle = now;
    }
    const ObjectEvent event{static_cast<StreamId>(rng.Below(4)),
                            static_cast<ObjectId>(rng.Below(6)), now};
    mux.Push(event, &completed);
    mine_completed();
    if (HasFatalFailure()) return;
  }
  mux.FlushAll(&completed);
  mine_completed();

  // An expired trigger drops out of every miner's support alike, and
  // CooMine's new-object rule fires on the busy streams.
  EXPECT_GT(miners[1]->stats().new_object_triggers, 0u);
  ExpectSameWork(miners);
}

}  // namespace
}  // namespace fcp
