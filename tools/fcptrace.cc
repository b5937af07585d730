// fcptrace — validate and inspect fcp flight-recorder traces.
//
// Parses the Chrome trace-event JSON that `fcpmine --trace` (or
// trace::WriteChromeTrace) produced, checks it against the schema Perfetto
// expects, and summarizes it: per-name span statistics, the slowest
// individual spans, and flow connectivity (does any segment's journey
// actually cross a thread boundary?). A slow `engine/mine` or `shard/mine`
// row names the segment it mined (its id and length); on a sharded run
// the thread name (`shard-N`) names the shard.
//
// Examples:
//   fcptrace --input=run.trace.json
//   fcptrace --input=run.trace.json --slowest=25
//   fcptrace --input=run.trace.json --require_cross_thread_flows
//
// Flags:
//   --input=<path>        Chrome trace JSON to inspect (required)
//   --slowest=N           print the N slowest spans (default 10; 0 = skip;
//                         negative exits 1)
//   --validate            parse + schema-check only, print "valid", exit
//   --require_cross_thread_flows   exit nonzero unless at least one flow id
//                         appears on >= 2 distinct threads (CI uses this to
//                         prove cross-shard stitching survived a change)
//   Any other flag exits 2 with `unknown flag --<name>`.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/trace.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "fcptrace: %s\n", message.c_str());
  return 1;
}

struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
  double max_us = 0;
};

struct SlowSpan {
  std::string name;
  uint64_t tid = 0;
  double ts_us = 0;
  double dur_us = 0;
  uint64_t flow = 0;  ///< args.flow: a mine span's segment id
  uint64_t arg = 0;   ///< args.arg: a mine span's segment length
};

}  // namespace

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  flags.RejectUnknown(
      {"input", "slowest", "validate", "require_cross_thread_flows"});
  const std::string input = flags.GetString("input", "");
  if (input.empty()) return Fail("need --input=<trace.json>");
  const int64_t slowest = flags.GetInt("slowest", 10);
  if (slowest < 0) return Fail("--slowest must be >= 0");

  std::ifstream in(input, std::ios::binary);
  if (!in) return Fail("cannot open " + input);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  std::string error;
  const auto events = fcp::trace::ParseChromeTraceJson(json, &error);
  if (!events.has_value()) return Fail("invalid trace: " + error);
  if (flags.GetBool("validate", false)) {
    std::printf("valid: %zu events\n", events->size());
    return 0;
  }

  // --- Reconstruct spans (per-thread B/E matching) and flows. ---------------
  std::map<uint64_t, std::string> thread_names;
  std::map<uint64_t, std::vector<SlowSpan>> open;  // per-tid B stack
  std::map<std::string, SpanStats> by_name;
  std::vector<SlowSpan> spans;
  std::map<std::string, std::set<uint64_t>> flow_tids;  // flow id -> tids
  uint64_t unmatched_ends = 0;
  for (const fcp::trace::ParsedTraceEvent& event : *events) {
    switch (event.ph) {
      case 'M':
        if (event.name == "thread_name") {
          thread_names[event.tid] = event.arg_name;
        }
        break;
      case 'B':
        open[event.tid].push_back(SlowSpan{event.name, event.tid, event.ts_us,
                                           0, event.flow, event.arg});
        break;
      case 'E': {
        std::vector<SlowSpan>& stack = open[event.tid];
        if (stack.empty()) {
          ++unmatched_ends;
          break;
        }
        SlowSpan span = stack.back();
        stack.pop_back();
        span.dur_us = event.ts_us - span.ts_us;
        SpanStats& stats = by_name[span.name];
        ++stats.count;
        stats.total_us += span.dur_us;
        stats.max_us = std::max(stats.max_us, span.dur_us);
        spans.push_back(std::move(span));
        break;
      }
      case 's':
      case 't':
      case 'f':
        flow_tids[event.id].insert(event.tid);
        break;
      default:
        break;
    }
  }
  uint64_t unclosed = 0;
  for (const auto& [tid, stack] : open) unclosed += stack.size();

  // --- Report. ---------------------------------------------------------------
  std::printf("%zu events, %zu threads, %zu spans", events->size(),
              thread_names.size(), spans.size());
  if (unclosed > 0 || unmatched_ends > 0) {
    std::printf(" (%llu unclosed, %llu unmatched ends)",
                static_cast<unsigned long long>(unclosed),
                static_cast<unsigned long long>(unmatched_ends));
  }
  std::printf("\n");
  for (const auto& [tid, name] : thread_names) {
    std::printf("  tid %llu: %s\n", static_cast<unsigned long long>(tid),
                name.c_str());
  }

  if (!by_name.empty()) {
    fcp::TablePrinter table({"span", "count", "total_ms", "mean_us", "max_us"});
    for (const auto& [name, stats] : by_name) {
      table.AddRow({name, std::to_string(stats.count),
                    fcp::TablePrinter::Num(stats.total_us / 1000.0, 3),
                    fcp::TablePrinter::Num(
                        stats.total_us / static_cast<double>(stats.count), 2),
                    fcp::TablePrinter::Num(stats.max_us, 2)});
    }
    table.Print(std::cout);
  }

  if (slowest > 0 && !spans.empty()) {
    std::sort(spans.begin(), spans.end(),
              [](const SlowSpan& a, const SlowSpan& b) {
                return a.dur_us > b.dur_us;
              });
    std::printf("slowest spans:\n");
    const size_t rows = std::min(static_cast<size_t>(slowest), spans.size());
    for (size_t i = 0; i < rows; ++i) {
      const SlowSpan& span = spans[i];
      const auto name_it = thread_names.find(span.tid);
      std::printf("  %10.2f us  %-24s  tid %llu%s%s  @ %.3f us",
                  span.dur_us, span.name.c_str(),
                  static_cast<unsigned long long>(span.tid),
                  name_it != thread_names.end() ? " " : "",
                  name_it != thread_names.end() ? name_it->second.c_str() : "",
                  span.ts_us);
      // The engines open their mine spans on the segment's id (the flow) with
      // its length as the arg (MineTimed, core/engine_front.cc).
      if (span.name == "engine/mine" || span.name == "shard/mine") {
        std::printf("  segment %llu len %llu",
                    static_cast<unsigned long long>(span.flow),
                    static_cast<unsigned long long>(span.arg));
      }
      std::printf("\n");
    }
  }

  size_t cross_thread = 0;
  for (const auto& [id, tids] : flow_tids) {
    if (tids.size() >= 2) ++cross_thread;
  }
  std::printf("flows: %zu total, %zu cross-thread\n", flow_tids.size(),
              cross_thread);
  if (flags.GetBool("require_cross_thread_flows", false) &&
      cross_thread == 0) {
    return Fail("no flow id appears on >= 2 threads (causal stitching broken)");
  }
  return 0;
}
