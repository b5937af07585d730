// Minimal command-line flag parsing for the bench harness binaries
// (`--key=value` / `--flag`). Not a general-purpose flags library; just
// enough to make every bench parameterizable without extra dependencies.

#ifndef FCP_UTIL_FLAGS_H_
#define FCP_UTIL_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>

namespace fcp {

/// Parses `--key=value` and bare `--key` arguments. Unknown positional
/// arguments are ignored (google-benchmark consumes its own flags first).
class Flags {
 public:
  Flags(int argc, char** argv);

  /// Prints `unknown flag --<key>` for every key passed that is not in
  /// `known` and exits with status 2 if there was one. A tool calls it once,
  /// naming every key it reads, so a typo fails instead of running with the
  /// default.
  void RejectUnknown(std::initializer_list<std::string_view> known) const;

  /// True iff `--name` or `--name=...` was passed.
  bool Has(const std::string& name) const;

  /// Value lookups with defaults. GetInt wants a whole number and GetDouble
  /// a number, with nothing after it; any other value prints
  /// `bad value for --<name>` and exits with status 2.
  std::string GetString(const std::string& name, std::string def) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;

 private:
  std::unordered_map<std::string, std::string> values_;
};

}  // namespace fcp

#endif  // FCP_UTIL_FLAGS_H_
