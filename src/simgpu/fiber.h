// Cooperatively scheduled fibers used to run a work-group's work-items
// concurrently on one OS thread. `barrier()` in a kernel suspends the
// current work-item until every live work-item in the group has reached
// the barrier — real OpenCL/CUDA work-group barrier semantics, which
// kernels like reduction/scan/FT depend on.
//
// Implementation: POSIX ucontext fibers with private stacks. The group
// scheduler runs work-items round-robin between barriers; a group with no
// barriers degenerates to plain sequential execution.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "support/status.h"

namespace bridgecl::simgpu {

/// Runs `count` tasks as fibers until all complete. Tasks may call
/// `Barrier()` (from inside the task, via the scheduler pointer handed to
/// them) any number of times; all live tasks must reach the barrier before
/// any proceeds. A task returning a non-ok Status aborts the group.
class FiberGroup {
 public:
  /// Task receives its index. It may call FiberGroup::Barrier() (through
  /// the pointer passed alongside) to synchronize with siblings.
  using Task = std::function<Status(int index)>;

  explicit FiberGroup(size_t stack_bytes = 256 * 1024);
  ~FiberGroup();

  FiberGroup(const FiberGroup&) = delete;
  FiberGroup& operator=(const FiberGroup&) = delete;

  /// Run `count` instances of `task` to completion. Returns the first
  /// non-ok status produced, or an error if the group deadlocks (some
  /// fibers wait at a barrier while others already returned — the
  /// divergent-barrier bug real GPUs hang on).
  Status Run(int count, const Task& task);

  /// Called from inside a running task: wait for all live siblings.
  void Barrier();

  /// True while called from inside a task (barrier is only legal then).
  bool InFiber() const;

  /// Bytes of the running task's stack still free below the caller;
  /// SIZE_MAX outside a task.
  size_t StackLeft() const;

  struct Impl;  // public so the ucontext trampoline can reach it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace bridgecl::simgpu
