#include "serve/cpu_pin.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace hope::serve {

bool PinCurrentThreadToCpu(unsigned cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % CPU_SETSIZE, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace hope::serve
