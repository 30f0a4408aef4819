// How many CPUs this process may run on: the one count that sizes both
// EncodeBatch's fan-out and the serving layer's worker pinning.
#pragma once

namespace hope {

/// CPUs in the calling thread's affinity mask (so a process started
/// under `taskset` or a cpuset counts only the CPUs it was given). Falls
/// back to std::thread::hardware_concurrency() where the mask cannot be
/// read, and never returns less than 1.
unsigned NumCpus();

}  // namespace hope
