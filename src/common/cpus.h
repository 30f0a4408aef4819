// The CPUs this process may run on: the one count that sizes
// EncodeBatch's fan-out, and the CPU ids the serving layer pins its
// workers to.
#pragma once

namespace hope {

/// CPUs in the calling thread's affinity mask (so a process started
/// under `taskset` or a cpuset counts only the CPUs it was given). Falls
/// back to std::thread::hardware_concurrency() where the mask cannot be
/// read, and never returns less than 1.
unsigned NumCpus();

/// The id of the (i mod NumCpus())-th CPU of the calling thread's
/// affinity mask, in increasing id order, so pinning thread i to it never
/// leaves the CPUs the process was given. Where the mask cannot be read,
/// i mod NumCpus().
unsigned NthCpu(unsigned i);

}  // namespace hope
