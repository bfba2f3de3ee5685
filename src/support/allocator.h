// Allocator policy for Lumos's working set.
//
// Every prediction allocates large, short-lived columns — a rebuilt graph's
// event columns, a schedule's start/end times, a fault plan's durations —
// and frees them once the answer is out. glibc's dynamic thresholds start
// low (128 KiB each) and only rise after a large mmapped block is
// freed, so a process whose columns are each below a few MiB keeps handing
// freed memory back to the OS and page-faulting it in again on the next
// prediction. On a 4-vCPU VM that was ~300 faults per replay-grid cell of
// a 73k-task graph, a fifth of the grid's wall time.
// keep_freed_memory_resident() fixes the thresholds where a process that
// had freed one 16 MiB block would have moved them anyway. Other C
// libraries keep their defaults.
#pragma once

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace lumos {

/// Applies the policy once per process; later calls are free.
inline void keep_freed_memory_resident() {
#if defined(__GLIBC__)
  static const bool applied = [] {
    mallopt(M_MMAP_THRESHOLD, 16 << 20);
    mallopt(M_TRIM_THRESHOLD, 32 << 20);
    return true;
  }();
  (void)applied;
#endif
}

}  // namespace lumos
