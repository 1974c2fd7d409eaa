#include "simgpu/fiber.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>

namespace bridgecl::simgpu {

namespace {
enum class FiberState { kReady, kAtBarrier, kDone };

size_t PageBytes() {
  static const size_t bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

/// Per-thread free lists of fiber stacks, one per stack size. A stack is
/// mmap'd once, with a PROT_NONE guard page below its usable range so a
/// host overrun faults instead of corrupting a neighbour, and is then
/// handed to every later FiberGroup::Run on the thread that made it. Stacks
/// are never zeroed (a fiber's frames initialize what they use); they are
/// unmapped when the thread exits.
class StackPool {
 public:
  ~StackPool() {
    for (const SizeClass& c : classes_)
      for (char* base : c.free)
        munmap(base - PageBytes(), PageBytes() + c.bytes);
  }

  /// Usable base of a `bytes`-long stack, or nullptr if mmap fails.
  char* Take(size_t bytes) {
    std::vector<char*>& free = FreeList(bytes);
    if (!free.empty()) {
      char* base = free.back();
      free.pop_back();
      return base;
    }
    const size_t guard = PageBytes();
    void* map = mmap(nullptr, guard + bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map == MAP_FAILED) return nullptr;
    if (mprotect(map, guard, PROT_NONE) != 0) {
      munmap(map, guard + bytes);
      return nullptr;
    }
    return static_cast<char*>(map) + guard;
  }

  void Give(char* base, size_t bytes) { FreeList(bytes).push_back(base); }

 private:
  struct SizeClass {
    size_t bytes;
    std::vector<char*> free;
  };

  std::vector<char*>& FreeList(size_t bytes) {
    for (SizeClass& c : classes_)
      if (c.bytes == bytes) return c.free;
    classes_.push_back({bytes, {}});
    return classes_.back().free;
  }

  std::vector<SizeClass> classes_;  // a handful of sizes per process
};

thread_local StackPool g_stack_pool;
}  // namespace

struct FiberGroup::Impl {
  struct Fiber {
    ucontext_t ctx;
    char* stack = nullptr;  // usable base; the guard page sits below it
    FiberState state = FiberState::kReady;
    Status status;
  };

  size_t stack_bytes;
  ucontext_t main_ctx;
  std::vector<Fiber> fibers;
  const Task* task = nullptr;
  int current = -1;
  bool in_fiber = false;

  void RunFiberBody() {
    Fiber& f = fibers[current];
    f.status = (*task)(current);
    f.state = FiberState::kDone;
    // uc_link returns control to main_ctx.
  }
};

namespace {
// makecontext can only pass ints; hand the Impl over via a thread-local.
thread_local FiberGroup::Impl* g_active_impl = nullptr;

extern "C" void FiberTrampoline() {
  assert(g_active_impl != nullptr);
  g_active_impl->RunFiberBody();
}
}  // namespace

FiberGroup::FiberGroup(size_t stack_bytes) : impl_(std::make_unique<Impl>()) {
  // Whole pages, so the pooled mapping ends where the usable range does.
  impl_->stack_bytes = (stack_bytes + PageBytes() - 1) & ~(PageBytes() - 1);
}

FiberGroup::~FiberGroup() = default;

bool FiberGroup::InFiber() const { return impl_->in_fiber; }

size_t FiberGroup::StackLeft() const {
  if (!impl_->in_fiber) return SIZE_MAX;
  // Stacks grow down from the top of the usable range to its base.
  const char* low = impl_->fibers[impl_->current].stack;
  const char* sp = static_cast<const char*>(__builtin_frame_address(0));
  return sp > low ? static_cast<size_t>(sp - low) : 0;
}

void FiberGroup::Barrier() {
  assert(impl_->in_fiber && "Barrier() outside of a running work-item");
  Impl* impl = impl_.get();
  impl->fibers[impl->current].state = FiberState::kAtBarrier;
  impl->in_fiber = false;
  swapcontext(&impl->fibers[impl->current].ctx, &impl->main_ctx);
  impl->in_fiber = true;
}

Status FiberGroup::Run(int count, const Task& task) {
  if (count <= 0) return OkStatus();
  Impl* impl = impl_.get();
  impl->fibers.clear();
  impl->fibers.resize(count);
  Status first_error;
  for (Impl::Fiber& f : impl->fibers) {
    f.stack = g_stack_pool.Take(impl->stack_bytes);
    if (f.stack == nullptr) {
      first_error = ResourceExhaustedError("cannot map a fiber stack");
      break;
    }
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack;
    f.ctx.uc_stack.ss_size = impl->stack_bytes;
    f.ctx.uc_link = &impl->main_ctx;
    makecontext(&f.ctx, FiberTrampoline, 0);
  }

  if (first_error.ok()) {
    impl->task = &task;
    Impl* prev_active = g_active_impl;
    g_active_impl = impl;
    for (bool parked = true; parked;) {
      for (int i = 0; i < count; ++i) {
        Impl::Fiber& f = impl->fibers[i];
        if (f.state != FiberState::kReady) continue;
        impl->current = i;
        impl->in_fiber = true;
        swapcontext(&impl->main_ctx, &f.ctx);
        impl->in_fiber = false;
        if (f.state == FiberState::kDone && !f.status.ok() &&
            first_error.ok()) {
          first_error = f.status;
        }
      }
      // Every fiber has now returned or is parked at the barrier: release
      // the parked ones. Work-items that already returned are tolerated
      // (trailing early-exit threads — common in guard-banded kernels).
      parked = false;
      for (Impl::Fiber& f : impl->fibers)
        if (f.state == FiberState::kAtBarrier) {
          f.state = FiberState::kReady;
          parked = true;
        }
    }
    g_active_impl = prev_active;
    impl->task = nullptr;
  }

  for (Impl::Fiber& f : impl->fibers)
    if (f.stack != nullptr) g_stack_pool.Give(f.stack, impl->stack_bytes);
  impl->fibers.clear();
  return first_error;
}

}  // namespace bridgecl::simgpu
