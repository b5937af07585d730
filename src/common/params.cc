#include "common/params.h"

#include <sstream>

namespace fcp {

Status MiningParams::Validate() const {
  if (xi <= 0) {
    return Status::InvalidArgument("xi must be positive");
  }
  if (tau <= 0) {
    return Status::InvalidArgument("tau must be positive");
  }
  if (tau < xi) {
    return Status::InvalidArgument(
        "tau must be >= xi (the paper assumes tau >> xi)");
  }
  if (theta == 0) {
    return Status::InvalidArgument("theta must be >= 1");
  }
  if (max_pattern_size != 0 && min_pattern_size > max_pattern_size) {
    return Status::InvalidArgument(
        "min_pattern_size must be <= max_pattern_size");
  }
  if (min_pattern_size == 0) {
    return Status::InvalidArgument("min_pattern_size must be >= 1");
  }
  return Status::OK();
}

std::string MiningParams::ToString() const {
  std::ostringstream os;
  os << "xi=" << xi << "ms tau=" << tau << "ms theta=" << theta << " k=["
     << min_pattern_size << ",";
  if (max_pattern_size == 0) {
    os << "inf";
  } else {
    os << max_pattern_size;
  }
  os << "]";
  return os.str();
}

}  // namespace fcp
