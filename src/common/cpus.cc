#include "common/cpus.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace hope {

unsigned NumCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  // Fails with EINVAL on a machine with more CPUs than CPU_SETSIZE; the
  // fallback below covers it.
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace hope
