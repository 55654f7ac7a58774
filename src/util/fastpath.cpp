#include "util/fastpath.h"

#include <cstdlib>
#include <cstring>

namespace mrts {
namespace {

bool initial_state() {
  const char* env = std::getenv("MRTS_NO_BB_CACHE");
  if (env == nullptr) return true;
  return std::strcmp(env, "0") == 0;  // MRTS_NO_BB_CACHE=0 keeps it on
}

bool& flag() {
  static bool enabled = initial_state();
  return enabled;
}

}  // namespace

bool fastpath_enabled() { return flag(); }

void set_fastpath_enabled(bool enabled) { flag() = enabled; }

}  // namespace mrts
