// Thread-to-CPU pinning for the shared-nothing worker loop. Best-effort:
// on platforms without an affinity API (or inside restricted cgroups)
// pinning reports failure and the caller keeps running unpinned — the
// serving layer treats affinity as a tail-latency optimization, never a
// correctness requirement.
#pragma once

namespace hope::serve {

/// Pins the calling thread to `cpu` (modulo the platform's CPU-set
/// size). Returns false when unsupported or rejected by the OS.
bool PinCurrentThreadToCpu(unsigned cpu);

}  // namespace hope::serve
