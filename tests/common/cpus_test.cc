#include "common/cpus.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

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

// NthCpu walks the mask's CPU ids in increasing order and wraps around,
// so it names only CPUs the thread may run on.
TEST(NumCpusTest, NthCpuWalksTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  std::vector<unsigned> ids;
  for (unsigned cpu = 0; cpu < CPU_SETSIZE; cpu++)
    if (CPU_ISSET(cpu, &set)) ids.push_back(cpu);
  for (unsigned i = 0; i < 2 * ids.size() + 1; i++)
    EXPECT_EQ(NthCpu(i), ids[i % ids.size()]) << i;

  // A thread narrowed to its mask's last CPU gets that CPU for every i.
  unsigned last = ids.back();
  std::vector<unsigned> seen;
  std::thread t([&] {
    if (!serve::PinCurrentThreadToCpu(last)) return;
    for (unsigned i = 0; i < 4; i++) seen.push_back(NthCpu(i));
  });
  t.join();
  ASSERT_EQ(seen.size(), 4u);
  for (unsigned cpu : seen) EXPECT_EQ(cpu, last);
}
#endif

}  // namespace
}  // namespace hope
