#include "core/slow_op.h"

#include "telemetry/trace.h"

namespace fcp {

std::string DumpSlowOp(const char* op, const Segment& segment,
                       const FcpMiner& miner, uint32_t shard,
                       int64_t duration_ns) {
  trace::SlowOpReport report;
  report.op = op;
  report.duration_ns = duration_ns;
  report.miner = std::string(miner.name());
  report.shard = shard;
  report.segment_debug = segment.DebugString();
  report.segment_id = segment.id();
  report.stream = segment.stream();
  report.segment_length = segment.length();
  report.segment_start_ms = segment.start_time();
  report.segment_end_ms = segment.end_time();

  const MinerStats& stats = miner.stats();
  const MinerIntrospection view = miner.Introspect();
  report.state = {
      {"segments_processed", static_cast<int64_t>(stats.segments_processed)},
      {"fcps_emitted", static_cast<int64_t>(stats.fcps_emitted)},
      {"candidates_checked", static_cast<int64_t>(stats.candidates_checked)},
      {"candidates_pruned", static_cast<int64_t>(stats.candidates_pruned)},
      {"candidates_bound_passed",
       static_cast<int64_t>(stats.candidates_bound_passed)},
      {"slcp_probes", static_cast<int64_t>(stats.slcp_probes)},
      {"lcp_rows", static_cast<int64_t>(stats.lcp_rows)},
      {"live_rows", static_cast<int64_t>(stats.live_rows)},
      {"slcp_nodes_visited", static_cast<int64_t>(stats.slcp_nodes_visited)},
      {"maintenance_runs", static_cast<int64_t>(stats.maintenance_runs)},
      {"segments_expired", static_cast<int64_t>(stats.segments_expired)},
      {"mining_ns", stats.mining_ns},
      {"maintenance_ns", stats.maintenance_ns},
      {"live_segments", static_cast<int64_t>(view.live_segments)},
      {"index_nodes", static_cast<int64_t>(view.index_nodes)},
      {"index_entries", static_cast<int64_t>(view.index_entries)},
      {"index_bytes", static_cast<int64_t>(view.index_bytes)},
      {"arena_bytes", static_cast<int64_t>(view.arena_bytes)},
      {"compression_ratio_x1000",
       static_cast<int64_t>(view.compression_ratio * 1000.0)},
  };
  return trace::WriteSlowOpDump(report);
}

}  // namespace fcp
