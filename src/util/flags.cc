#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

namespace fcp {
namespace {

/// Rejects `value` unless strto*() consumed all of it without overflow.
void CheckParsed(const std::string& name, const std::string& value,
                 const char* end) {
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", name.c_str(),
                 value.c_str());
    std::exit(2);
  }
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

void Flags::RejectUnknown(
    std::initializer_list<std::string_view> known) const {
  std::vector<std::string_view> unknown;
  for (const auto& [key, value] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);
    }
  }
  if (unknown.empty()) return;
  std::sort(unknown.begin(), unknown.end());
  for (std::string_view key : unknown) {
    std::fprintf(stderr, "unknown flag --%.*s\n", static_cast<int>(key.size()),
                 key.data());
  }
  std::exit(2);
}

bool Flags::Has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::GetString(const std::string& name, std::string def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  CheckParsed(name, it->second, end);
  return value;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(it->second.c_str(), &end);
  CheckParsed(name, it->second, end);
  return value;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

}  // namespace fcp
