// A host timer in a would-be native-kernel directory: no directory under
// src/ may read the wall clock without the per-line escape.
#include <chrono>

double host_seconds() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
