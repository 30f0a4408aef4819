#include "common/cpus.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace hope {

namespace {

#if defined(__linux__)
/// The calling thread's affinity mask. Fails with EINVAL on a machine
/// with more CPUs than CPU_SETSIZE; callers fall back then.
bool AffinityMask(cpu_set_t* set) {
  CPU_ZERO(set);
  return sched_getaffinity(0, sizeof(*set), set) == 0 && CPU_COUNT(set) > 0;
}
#endif

unsigned HardwareCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

unsigned NumCpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (AffinityMask(&set)) return static_cast<unsigned>(CPU_COUNT(&set));
#endif
  return HardwareCpus();
}

unsigned NthCpu(unsigned i) {
#if defined(__linux__)
  cpu_set_t set;
  if (AffinityMask(&set)) {
    unsigned k = i % static_cast<unsigned>(CPU_COUNT(&set));
    for (unsigned cpu = 0; cpu < CPU_SETSIZE; cpu++)
      if (CPU_ISSET(cpu, &set) && k-- == 0) return cpu;
  }
#endif
  return i % HardwareCpus();
}

}  // namespace hope
