#include "common/cpus.h"

#include <gtest/gtest.h>

#include <thread>

#include "serve/cpu_pin.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace hope {
namespace {

TEST(NumCpusTest, AtLeastOne) { EXPECT_GE(NumCpus(), 1u); }

#if defined(__linux__)
// The count is the calling thread's affinity mask, not the machine's CPUs:
// a thread pinned to one CPU sees 1.
TEST(NumCpusTest, FollowsTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(NumCpus(), static_cast<unsigned>(CPU_COUNT(&set)));
  unsigned first = 0;
  while (!CPU_ISSET(first, &set)) first++;

  bool pinned = false;
  unsigned seen = 0;
  std::thread t([&] {
    pinned = serve::PinCurrentThreadToCpu(first);
    seen = NumCpus();
  });
  t.join();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(seen, 1u);
}
#endif

}  // namespace
}  // namespace hope
