// fcpprof — inspector for folded-stack profiles (fcpmine --profile output,
// /pprof/profile captures).
//
// A folded profile is one line per distinct stack: semicolon-separated
// frames, root first, then a space and the sample count. `wait;<tag>` lines
// are the off-CPU pseudo stacks fcp::prof emits alongside CPU samples.
//
// Modes (exit code 0 on success; budget assertions exit 1 on violation,
// 2 on usage/parse errors):
//   fcpprof top <profile> [--n=20] [--self]
//       Top frames by inclusive (default) or self samples.
//   fcpprof diff <before> <after> [--n=20]
//       Per-frame inclusive delta (after - before), largest regressions
//       first. Runs clean on disjoint profiles: missing frames count 0.
//   fcpprof assert <profile> --frame=<substr> [--max_pct=P] [--min_pct=P]
//       Asserts the frame's inclusive share of total samples is within the
//       budget. Repeatable gate for CI (exit 1 = budget violated).
//   fcpprof check <profile> [--min_symbolized_pct=95]
//               [--require_majority=<substr>] [--wait_substr=<substr>]
//               [--cpu_only]
//       Structural validation: parses every line, reports symbolization
//       rate (frames not rendered as raw 0x... addresses), and with
//       --require_majority verifies the matching frames carry a strict
//       majority of on-CPU samples AND outweigh the off-CPU wait time of
//       the wait tags matching --wait_substr (default: every wait tag).
//       CI scopes the wait comparison to the mining threads' own block
//       point (--wait_substr=shard/): upstream backpressure tags grow
//       precisely because mining is the bottleneck, so comparing against
//       them would penalize the healthy case on small machines.
//       --cpu_only skips the wait comparison entirely — the right gate for
//       a paced live scrape, where threads idle between arrivals by design
//       and idle wait dwarfs on-CPU time on any machine.
//
// Any other flag exits 2 with `unknown flag --<name>`.
//
// The summary block each mode prints (total samples, CPU vs wait split)
// keeps eyeballing a capture honest before any flamegraph tooling runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Profile {
  /// stack line (without count) -> samples
  std::map<std::string, uint64_t> stacks;
  uint64_t total = 0;       ///< all samples
  uint64_t cpu_total = 0;   ///< samples excluding wait; pseudo stacks
  uint64_t wait_total = 0;  ///< wait; pseudo-stack units
  uint64_t frames_seen = 0;
  uint64_t frames_symbolized = 0;  ///< frames not of the form 0x...
};

int Usage() {
  std::fprintf(stderr,
               "usage: fcpprof top <profile> [--n=20] [--self]\n"
               "       fcpprof diff <before> <after> [--n=20]\n"
               "       fcpprof assert <profile> --frame=<substr> "
               "[--max_pct=P] [--min_pct=P]\n"
               "       fcpprof check <profile> [--min_symbolized_pct=95] "
               "[--require_majority=<substr>]\n");
  return 2;
}

bool IsHexFrame(const std::string& frame) {
  return frame.size() > 2 && frame[0] == '0' && frame[1] == 'x';
}

bool IsWaitStack(const std::string& stack) {
  return stack.rfind("wait;", 0) == 0;
}

/// Parses one folded profile. Returns false (with a message) on any
/// malformed line — captures are machine-written, so damage means the
/// capture path is broken and a gate should fail loudly.
bool LoadProfile(const std::string& path, Profile* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      *error = path + ":" + std::to_string(lineno) + ": no count field";
      return false;
    }
    const std::string count_str = line.substr(space + 1);
    char* end = nullptr;
    const unsigned long long count =
        std::strtoull(count_str.c_str(), &end, 10);
    if (end == count_str.c_str() || *end != '\0') {
      *error = path + ":" + std::to_string(lineno) + ": bad count '" +
               count_str + "'";
      return false;
    }
    std::string stack = line.substr(0, space);
    out->stacks[stack] += count;
    out->total += count;
    if (IsWaitStack(stack)) {
      out->wait_total += count;
      continue;
    }
    out->cpu_total += count;
    // Per-frame symbolization accounting (weighted by samples).
    std::stringstream frames(stack);
    std::string frame;
    while (std::getline(frames, frame, ';')) {
      out->frames_seen += count;
      if (!IsHexFrame(frame)) out->frames_symbolized += count;
    }
  }
  return true;
}

/// Inclusive samples per frame: a stack's count goes to every distinct
/// frame on it (counted once per stack, so recursion does not double-bill).
std::map<std::string, uint64_t> InclusiveByFrame(const Profile& profile) {
  std::map<std::string, uint64_t> inclusive;
  for (const auto& [stack, count] : profile.stacks) {
    std::set<std::string> seen;
    std::stringstream frames(stack);
    std::string frame;
    while (std::getline(frames, frame, ';')) {
      if (seen.insert(frame).second) inclusive[frame] += count;
    }
  }
  return inclusive;
}

/// Self samples per frame: a stack's count goes to its leaf only.
std::map<std::string, uint64_t> SelfByFrame(const Profile& profile) {
  std::map<std::string, uint64_t> self;
  for (const auto& [stack, count] : profile.stacks) {
    const size_t semi = stack.rfind(';');
    self[semi == std::string::npos ? stack : stack.substr(semi + 1)] +=
        count;
  }
  return self;
}

/// Inclusive samples carried by frames containing `substr` (each stack
/// counted at most once), split by CPU/wait.
uint64_t MatchingCpuSamples(const Profile& profile,
                            const std::string& substr) {
  uint64_t matched = 0;
  for (const auto& [stack, count] : profile.stacks) {
    if (IsWaitStack(stack)) continue;
    if (stack.find(substr) != std::string::npos) matched += count;
  }
  return matched;
}

void PrintSummary(const char* label, const Profile& profile) {
  std::printf(
      "%s: %llu samples (%llu cpu, %llu wait), %zu stacks, "
      "%.1f%% of frames symbolized\n",
      label, static_cast<unsigned long long>(profile.total),
      static_cast<unsigned long long>(profile.cpu_total),
      static_cast<unsigned long long>(profile.wait_total),
      profile.stacks.size(),
      profile.frames_seen == 0
          ? 100.0
          : 100.0 * static_cast<double>(profile.frames_symbolized) /
                static_cast<double>(profile.frames_seen));
}

long FlagInt(const std::vector<std::string>& args, const std::string& name,
             long fallback) {
  const std::string prefix = "--" + name + "=";
  for (const std::string& arg : args) {
    if (arg.rfind(prefix, 0) == 0) {
      return std::strtol(arg.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

std::string FlagStr(const std::vector<std::string>& args,
                    const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (const std::string& arg : args) {
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

bool FlagBool(const std::vector<std::string>& args, const std::string& name) {
  return std::find(args.begin(), args.end(), "--" + name) != args.end();
}

int RunTop(const Profile& profile, const std::vector<std::string>& args) {
  const long n = FlagInt(args, "n", 20);
  const bool self = FlagBool(args, "self");
  const auto by_frame =
      self ? SelfByFrame(profile) : InclusiveByFrame(profile);
  std::vector<std::pair<std::string, uint64_t>> rows(by_frame.begin(),
                                                     by_frame.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  PrintSummary("profile", profile);
  std::printf("top %ld frames by %s samples:\n", n,
              self ? "self" : "inclusive");
  long printed = 0;
  for (const auto& [frame, count] : rows) {
    if (printed++ >= n) break;
    std::printf("  %8llu  %5.1f%%  %s\n",
                static_cast<unsigned long long>(count),
                profile.total == 0 ? 0.0
                                   : 100.0 * static_cast<double>(count) /
                                         static_cast<double>(profile.total),
                frame.c_str());
  }
  return 0;
}

int RunDiff(const Profile& before, const Profile& after,
            const std::vector<std::string>& args) {
  const long n = FlagInt(args, "n", 20);
  const auto inc_before = InclusiveByFrame(before);
  const auto inc_after = InclusiveByFrame(after);
  // Normalize to percent-of-total so two captures of different lengths
  // compare; the absolute columns stay for context.
  auto pct = [](const std::map<std::string, uint64_t>& m,
                const std::string& frame, uint64_t total) {
    const auto it = m.find(frame);
    if (it == m.end() || total == 0) return 0.0;
    return 100.0 * static_cast<double>(it->second) /
           static_cast<double>(total);
  };
  std::set<std::string> frames;
  for (const auto& [frame, count] : inc_before) frames.insert(frame);
  for (const auto& [frame, count] : inc_after) frames.insert(frame);
  struct Row {
    std::string frame;
    double before_pct, after_pct, delta;
  };
  std::vector<Row> rows;
  for (const std::string& frame : frames) {
    Row row;
    row.frame = frame;
    row.before_pct = pct(inc_before, frame, before.total);
    row.after_pct = pct(inc_after, frame, after.total);
    row.delta = row.after_pct - row.before_pct;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.delta != b.delta ? a.delta > b.delta : a.frame < b.frame;
  });
  PrintSummary("before", before);
  PrintSummary("after", after);
  std::printf("largest inclusive-share regressions (after - before):\n");
  long printed = 0;
  for (const Row& row : rows) {
    if (printed++ >= n) break;
    std::printf("  %+6.2f%%  (%5.1f%% -> %5.1f%%)  %s\n", row.delta,
                row.before_pct, row.after_pct, row.frame.c_str());
  }
  return 0;
}

int RunAssert(const Profile& profile, const std::vector<std::string>& args) {
  const std::string frame = FlagStr(args, "frame");
  if (frame.empty()) return Usage();
  const long max_pct = FlagInt(args, "max_pct", 100);
  const long min_pct = FlagInt(args, "min_pct", 0);
  uint64_t matched = 0;
  for (const auto& [stack, count] : profile.stacks) {
    if (stack.find(frame) != std::string::npos) matched += count;
  }
  const double share =
      profile.total == 0 ? 0.0
                         : 100.0 * static_cast<double>(matched) /
                               static_cast<double>(profile.total);
  std::printf("frames matching '%s': %llu samples = %.1f%% of total "
              "(budget %ld..%ld%%)\n",
              frame.c_str(), static_cast<unsigned long long>(matched),
              share, min_pct, max_pct);
  if (share > static_cast<double>(max_pct) ||
      share < static_cast<double>(min_pct)) {
    std::fprintf(stderr, "fcpprof: budget violated\n");
    return 1;
  }
  return 0;
}

int RunCheck(const Profile& profile, const std::vector<std::string>& args) {
  PrintSummary("profile", profile);
  if (profile.total == 0) {
    std::fprintf(stderr, "fcpprof: profile is empty\n");
    return 1;
  }
  const long min_symbolized = FlagInt(args, "min_symbolized_pct", 95);
  const double symbolized_pct =
      profile.frames_seen == 0
          ? 100.0
          : 100.0 * static_cast<double>(profile.frames_symbolized) /
                static_cast<double>(profile.frames_seen);
  if (symbolized_pct < static_cast<double>(min_symbolized)) {
    std::fprintf(stderr,
                 "fcpprof: symbolization %.1f%% below required %ld%%\n",
                 symbolized_pct, min_symbolized);
    return 1;
  }
  const std::string majority = FlagStr(args, "require_majority");
  if (!majority.empty()) {
    const uint64_t matched = MatchingCpuSamples(profile, majority);
    const bool cpu_only = FlagBool(args, "cpu_only");
    const std::string wait_substr = FlagStr(args, "wait_substr");
    uint64_t wait_matched = 0;
    for (const auto& [stack, count] : profile.stacks) {
      if (!IsWaitStack(stack)) continue;
      if (wait_substr.empty() ||
          stack.find(wait_substr) != std::string::npos) {
        wait_matched += count;
      }
    }
    std::printf("cpu samples matching '%s': %llu of %llu cpu; wait%s%s: "
                "%llu%s\n",
                majority.c_str(), static_cast<unsigned long long>(matched),
                static_cast<unsigned long long>(profile.cpu_total),
                wait_substr.empty() ? "" : " matching ",
                wait_substr.c_str(),
                static_cast<unsigned long long>(wait_matched),
                cpu_only ? " (not compared: --cpu_only)" : "");
    if (matched * 2 <= profile.cpu_total) {
      std::fprintf(stderr,
                   "fcpprof: '%s' frames are not a majority of on-CPU "
                   "samples\n",
                   majority.c_str());
      return 1;
    }
    if (!cpu_only && matched <= wait_matched) {
      std::fprintf(stderr,
                   "fcpprof: '%s' on-CPU samples do not outweigh the "
                   "matched off-CPU wait time\n",
                   majority.c_str());
      return 1;
    }
  }
  std::printf("ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Usage();
  const std::string mode = args[0];
  // Positional (non --flag) arguments after the mode are profile paths.
  static constexpr const char* kFlags[] = {
      "n",          "self",     "frame",           "max_pct",
      "min_pct",    "cpu_only", "require_majority", "min_symbolized_pct",
      "wait_substr"};
  std::vector<std::string> paths;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) {
      paths.push_back(args[i]);
      continue;
    }
    const std::string key = args[i].substr(2, args[i].find('=') - 2);
    if (std::find(std::begin(kFlags), std::end(kFlags), key) ==
        std::end(kFlags)) {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return 2;
    }
  }

  const size_t want_paths = mode == "diff" ? 2 : 1;
  if (paths.size() != want_paths) return Usage();

  std::vector<Profile> profiles(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    std::string error;
    if (!LoadProfile(paths[i], &profiles[i], &error)) {
      std::fprintf(stderr, "fcpprof: %s\n", error.c_str());
      return 2;
    }
  }

  if (mode == "top") return RunTop(profiles[0], args);
  if (mode == "diff") return RunDiff(profiles[0], profiles[1], args);
  if (mode == "assert") return RunAssert(profiles[0], args);
  if (mode == "check") return RunCheck(profiles[0], args);
  return Usage();
}
